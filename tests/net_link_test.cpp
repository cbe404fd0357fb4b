#include "h2priv/net/link.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "h2priv/util/bytes.hpp"

namespace h2priv::net {
namespace {

using util::microseconds;
using util::milliseconds;

Packet make_packet(std::size_t payload, Direction dir = Direction::kClientToServer) {
  return Packet{1, dir, util::SharedBytes::copy_of(util::patterned_bytes(payload, 0))};
}

struct Arrival {
  util::TimePoint at;
  std::size_t size;
};

struct LinkFixture {
  sim::Simulator sim;
  std::vector<Arrival> arrivals;

  Link make(LinkConfig cfg, std::uint64_t seed = 1) {
    return Link(sim, cfg, sim::Rng(seed), [this](Packet&& p) {
      arrivals.push_back({sim.now(), p.segment.size()});
    });
  }
};

TEST(Link, AppliesPropagationAndSerialization) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation = milliseconds(10);
  cfg.rate = util::megabits_per_second(8);  // 1 byte per microsecond
  Link link = f.make(cfg);
  link.send(make_packet(980));  // + 20 IP header = 1000 bytes => 1 ms
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 1u);
  EXPECT_EQ(f.arrivals[0].at.ns, milliseconds(11).ns);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation = milliseconds(1);
  cfg.rate = util::megabits_per_second(8);
  Link link = f.make(cfg);
  link.send(make_packet(980));  // 1 ms tx
  link.send(make_packet(980));  // queued: departs at 2 ms
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 2u);
  EXPECT_EQ(f.arrivals[0].at.ns, milliseconds(2).ns);
  EXPECT_EQ(f.arrivals[1].at.ns, milliseconds(3).ns);
}

TEST(Link, IdleLinkDoesNotAccumulateCredit) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation = util::Duration{};
  cfg.rate = util::megabits_per_second(8);
  Link link = f.make(cfg);
  link.send(make_packet(980));
  f.sim.run();
  // Second packet sent long after the first drained: full tx time again.
  link.send(make_packet(980));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 2u);
  EXPECT_EQ((f.arrivals[1].at - f.arrivals[0].at).ns, milliseconds(1).ns);
}

TEST(Link, LossProbabilityOneDropsEverything) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.loss_probability = 1.0;
  Link link = f.make(cfg);
  for (int i = 0; i < 10; ++i) link.send(make_packet(100));
  f.sim.run();
  EXPECT_TRUE(f.arrivals.empty());
  EXPECT_EQ(link.stats().lost, 10u);
  EXPECT_EQ(link.stats().sent, 10u);
  EXPECT_EQ(link.stats().delivered, 0u);
}

TEST(Link, LossProbabilityZeroDeliversEverything) {
  LinkFixture f;
  Link link = f.make(LinkConfig{});
  for (int i = 0; i < 50; ++i) link.send(make_packet(100));
  f.sim.run();
  EXPECT_EQ(f.arrivals.size(), 50u);
  EXPECT_EQ(link.stats().lost, 0u);
}

TEST(Link, PartialLossIsApproximatelyCalibrated) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.loss_probability = 0.2;
  Link link = f.make(cfg, /*seed=*/99);
  for (int i = 0; i < 5'000; ++i) link.send(make_packet(10));
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(link.stats().lost), 1'000.0, 120.0);
}

TEST(Link, JitterSpreadsArrivals) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.propagation = milliseconds(10);
  cfg.jitter_sigma = milliseconds(1);
  cfg.rate = util::BitRate{0};  // no serialization: isolate jitter
  Link link = f.make(cfg, 5);
  for (int i = 0; i < 200; ++i) link.send(make_packet(10));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 200u);
  bool any_off_nominal = false;
  for (const Arrival& a : f.arrivals) {
    if (a.at.ns != milliseconds(10).ns) any_off_nominal = true;
    EXPECT_GE(a.at.ns, 0);
  }
  EXPECT_TRUE(any_off_nominal);
}

TEST(Link, BurstContentionDropsExcess) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.rate = util::BitRate{0};
  cfg.burst_capacity_packets = 5;
  cfg.burst_window = milliseconds(1);
  cfg.burst_excess_loss = 1.0;
  Link link = f.make(cfg);
  for (int i = 0; i < 20; ++i) link.send(make_packet(10));  // one instant
  f.sim.run();
  EXPECT_EQ(f.arrivals.size(), 5u);
  EXPECT_EQ(link.stats().burst_dropped, 15u);
}

TEST(Link, BurstContentionRecoversAfterWindow) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.rate = util::BitRate{0};
  cfg.propagation = util::Duration{};
  cfg.burst_capacity_packets = 3;
  cfg.burst_window = milliseconds(1);
  cfg.burst_excess_loss = 1.0;
  Link link = f.make(cfg);
  for (int i = 0; i < 5; ++i) link.send(make_packet(10));
  f.sim.run();
  f.sim.schedule(milliseconds(5), [] {});
  f.sim.run();  // advance past the window
  for (int i = 0; i < 3; ++i) link.send(make_packet(10));
  f.sim.run();
  EXPECT_EQ(f.arrivals.size(), 6u);  // 3 + 3, middle 2 dropped
}

TEST(Link, SmoothedArrivalsAvoidBurstDrops) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.rate = util::BitRate{0};
  cfg.burst_capacity_packets = 5;
  cfg.burst_window = milliseconds(1);
  cfg.burst_excess_loss = 1.0;
  Link link = f.make(cfg);
  // One packet every 300 us: never more than 4 in any 1 ms window.
  for (int i = 0; i < 20; ++i) {
    f.sim.schedule(microseconds(300 * i), [&link] { link.send(make_packet(10)); });
  }
  f.sim.run();
  EXPECT_EQ(f.arrivals.size(), 20u);
  EXPECT_EQ(link.stats().burst_dropped, 0u);
}

TEST(Link, NullSinkRejected) {
  sim::Simulator sim;
  EXPECT_THROW(Link(sim, LinkConfig{}, sim::Rng(1), nullptr), std::invalid_argument);
}

TEST(Link, StatsCountBytes) {
  LinkFixture f;
  Link link = f.make(LinkConfig{});
  link.send(make_packet(100));
  f.sim.run();
  EXPECT_EQ(link.stats().bytes_sent, 120);  // payload + IP header
}

}  // namespace
}  // namespace h2priv::net
