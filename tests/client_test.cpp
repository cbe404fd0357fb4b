// Browser model over the full stack against a real H2Server.
#include "h2priv/client/browser.hpp"

#include <gtest/gtest.h>

#include "h2priv/server/h2_server.hpp"
#include "segment.hpp"
#include "stack_pair.hpp"

namespace h2priv::client {
namespace {

using h2priv::testing::StackPair;
using h2priv::testing::TcpPairConfig;
using util::milliseconds;
using util::seconds;

struct PageFixture {
  StackPair stack;
  web::Site site;
  web::RequestPlan plan;
  analysis::GroundTruth truth;
  std::unique_ptr<server::H2Server> server;
  std::unique_ptr<Browser> browser;

  explicit PageFixture(BrowserConfig browser_cfg = BrowserConfig::firefox_like(),
                       TcpPairConfig transport_cfg = {},
                       util::Duration first_gap = {})
      : stack(transport_cfg) {
    const web::ObjectId a = site.add("/a.css", "text/css",
                                     4'000, util::microseconds(300));
    const web::ObjectId b =
        site.add("/page.html", "text/html", 9'000, util::milliseconds(5));
    const web::ObjectId c = site.add("/late-1.png", "image/png", 6'000,
                                     util::microseconds(300));
    const web::ObjectId d = site.add("/late-2.png", "image/png", 7'000,
                                     util::microseconds(300));
    plan.items = {{a, first_gap, false},
                  {b, milliseconds(5), false},
                  {c, util::Duration{}, true},
                  {d, milliseconds(1), true}};
    plan.trigger_object = b;
    plan.trigger_delay = milliseconds(50);

    server = std::make_unique<server::H2Server>(stack.sim(), site, server::ServerConfig{},
                                                *stack.server_tls, sim::Rng(9), &truth);
    browser = std::make_unique<Browser>(stack.sim(), site, plan, browser_cfg,
                                        *stack.client_tls, sim::Rng(10));
  }

  void start() {
    stack.transport.server->listen();
    stack.transport.client->connect();
  }
};

TEST(Browser, CompletesPageLoad) {
  PageFixture f;
  bool complete = false;
  f.browser->on_page_complete = [&] { complete = true; };
  f.start();
  f.stack.run_for(seconds(20));
  EXPECT_TRUE(complete);
  EXPECT_TRUE(f.browser->stats().page_complete);
  EXPECT_FALSE(f.browser->stats().broken);
  for (const web::RequestPlan::Item& item : f.plan.items) {
    EXPECT_TRUE(f.browser->progress(item.object_id).requested);
  }
  EXPECT_EQ(f.browser->stats().rerequests_sent, 0u);
}

TEST(Browser, DeferredItemsWaitForTrigger) {
  PageFixture f;
  f.start();
  f.stack.run_for(seconds(20));
  const auto& html = f.browser->progress(2);
  const auto& late1 = f.browser->progress(3);
  ASSERT_TRUE(html.complete);
  ASSERT_TRUE(late1.complete);
  EXPECT_GE((late1.first_request_time - html.complete_time).ns, milliseconds(50).ns)
      << "deferred requests fire only after the trigger object completes";
}

TEST(Browser, TracksBytesAndCompletionTimes) {
  PageFixture f;
  f.start();
  f.stack.run_for(seconds(20));
  const auto& p = f.browser->progress(2);
  EXPECT_TRUE(p.requested);
  EXPECT_EQ(p.bytes_received, 9'000u);
  EXPECT_GT(p.complete_time.ns, p.first_request_time.ns);
}

TEST(Browser, StalledResponseTriggersReRequest) {
  // Drop every server->client payload packet for a while: the pending
  // clock fires and the browser re-GETs (the paper's retransmission
  // requests), spawning duplicate server instances.
  BrowserConfig cfg = BrowserConfig::firefox_like();
  cfg.pending_timeout = milliseconds(400);
  // First request fires at t=2s, well after the path is broken at t=1s.
  PageFixture f(cfg, TcpPairConfig{}, seconds(2));
  f.start();
  f.stack.run_for(seconds(1));
  auto* link = f.stack.transport.s2c.get();
  f.stack.transport.server->set_segment_out([](util::SharedBytes) { /* blackhole */ });
  f.stack.sim().schedule(seconds(2), [&f, link] {
    f.stack.transport.server->set_segment_out([link](util::SharedBytes wire) {
      link->send(net::Packet{0, net::Direction::kServerToClient, std::move(wire)});
    });
  });
  f.stack.run_for(seconds(60));
  EXPECT_GT(f.browser->stats().rerequests_sent, 0u);
}

TEST(Browser, ResetEpisodeAfterExhaustedRerequests) {
  BrowserConfig cfg = BrowserConfig::firefox_like();
  cfg.pending_timeout = milliseconds(300);
  cfg.max_rerequests_per_object = 1;
  PageFixture f(cfg, TcpPairConfig{}, seconds(2));
  f.start();
  f.stack.run_for(seconds(1));
  // Blackhole the server->client path permanently after the handshake: the
  // browser escalates to reset episodes and finally gives up.
  f.stack.transport.server->set_segment_out([](util::SharedBytes) {});
  f.stack.run_for(seconds(240));
  EXPECT_GT(f.browser->stats().reset_episodes, 0u);
  EXPECT_TRUE(f.browser->stats().broken);
  EXPECT_FALSE(f.browser->stats().page_complete);
}

TEST(Browser, BrokenTransportMarksPageBroken) {
  PageFixture f(BrowserConfig::firefox_like(), TcpPairConfig{}, seconds(2));
  std::string reason;
  f.browser->on_broken = [&](std::string r) { reason = std::move(r); };
  f.start();
  f.stack.run_for(seconds(1));
  testing::deliver_rst(*f.stack.transport.client);
  f.stack.run_for(seconds(5));
  EXPECT_TRUE(f.browser->stats().broken);
  EXPECT_FALSE(reason.empty());
}

TEST(Browser, SurvivesModerateLoss) {
  TcpPairConfig transport;
  transport.loss = 0.03;
  transport.seed = 77;
  PageFixture f(BrowserConfig::firefox_like(), transport);
  f.start();
  f.stack.run_for(seconds(120));
  EXPECT_TRUE(f.browser->stats().page_complete);
}

TEST(Browser, ProgressLookupIsChecked) {
  PageFixture f;
  EXPECT_THROW((void)f.browser->progress(999), std::out_of_range);
}

}  // namespace
}  // namespace h2priv::client
