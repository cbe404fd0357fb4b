// Attack orchestration state machine driven by synthetic monitor events.
#include "h2priv/core/attack.hpp"

#include <gtest/gtest.h>

#include "h2priv/tcp/segment.hpp"
#include "segment.hpp"

namespace h2priv::core {
namespace {

using util::milliseconds;
using util::seconds;

struct AttackFixture {
  sim::Simulator sim;
  net::Middlebox mb{sim};
  TrafficMonitor monitor{mb};
  NetworkController controller{sim, mb, sim::Rng(1)};
  tls::SealContext client_seal{0xfeed, 0};
  std::uint64_t client_seq = 1;

  AttackFixture() {
    mb.set_output(net::Direction::kClientToServer, [](net::Packet&&) {});
    mb.set_output(net::Direction::kServerToClient, [](net::Packet&&) {});
  }

  void send_gets(int n) {
    for (int i = 0; i < n; ++i) send_records({60});
  }

  void send_records(std::initializer_list<std::size_t> sizes) {
    util::Bytes payload;
    for (const std::size_t s : sizes) {
      const util::Bytes rec = client_seal.seal(tls::ContentType::kApplicationData,
                                               util::patterned_bytes(s, 1));
      payload.insert(payload.end(), rec.begin(), rec.end());
    }
    tcp::SegmentView seg;
    seg.seq = client_seq;
    seg.flags = tcp::kFlagAck;
    seg.payload = payload;
    client_seq += payload.size();
    mb.process(net::Direction::kClientToServer,
               net::Packet{0, net::Direction::kClientToServer,
                           testing::wire_segment(seg)});
  }
};

TEST(Attack, ArmInstallsPhaseOneSpacing) {
  AttackFixture f;
  AttackConfig cfg;
  Attack attack(f.sim, f.monitor, f.controller, cfg);
  attack.arm();
  EXPECT_TRUE(attack.timeline().armed.has_value());
  EXPECT_EQ(f.controller.request_spacing().ns, cfg.phase1_spacing.ns);
  EXPECT_FALSE(attack.triggered());
}

TEST(Attack, TargetGetStartsPhaseTwo) {
  AttackFixture f;
  AttackConfig cfg;
  cfg.target_get_index = 6;
  Attack attack(f.sim, f.monitor, f.controller, cfg);
  attack.arm();
  f.send_records({45});  // setup record (skipped by monitor)
  f.send_gets(5);
  f.sim.run_until(f.sim.now() + seconds(2));
  EXPECT_FALSE(attack.triggered());
  EXPECT_FALSE(f.controller.drops_active());
  f.send_gets(1);  // the 6th GET
  f.sim.run_until(f.sim.now() + milliseconds(1));
  EXPECT_TRUE(attack.triggered());
  EXPECT_TRUE(f.controller.drops_active());
}

TEST(Attack, FallbackTimerEndsDropWindowAndWidensSpacing) {
  AttackFixture f;
  AttackConfig cfg;
  cfg.target_get_index = 1;
  cfg.drop_duration = seconds(6);
  Attack attack(f.sim, f.monitor, f.controller, cfg);
  attack.arm();
  f.send_records({45});
  f.send_gets(1);
  f.sim.run_until(f.sim.now() + seconds(5));
  EXPECT_TRUE(f.controller.drops_active());
  EXPECT_FALSE(attack.timeline().drops_ended.has_value());
  f.sim.run_until(f.sim.now() + seconds(2));
  EXPECT_FALSE(f.controller.drops_active());
  ASSERT_TRUE(attack.timeline().drops_ended.has_value());
  EXPECT_EQ(f.controller.request_spacing().ns, kPhase3Spacing.ns);
}

TEST(Attack, ResetDetectionEndsDropsEarly) {
  AttackFixture f;
  AttackConfig cfg;
  cfg.target_get_index = 1;
  cfg.drop_duration = seconds(6);
  Attack attack(f.sim, f.monitor, f.controller, cfg);
  attack.arm();
  f.send_records({45});
  f.send_gets(1);
  f.sim.run_until(f.sim.now() + seconds(1));
  ASSERT_TRUE(f.controller.drops_active());
  // Client reset flurry: many RST-sized records in one segment.
  f.send_records({13, 13, 13, 13, 13, 13, 13, 13, 13, 13});
  f.sim.run_until(f.sim.now() + milliseconds(1));
  EXPECT_FALSE(f.controller.drops_active());
  ASSERT_TRUE(attack.timeline().drops_ended.has_value());
  EXPECT_LT(attack.timeline().drops_ended->seconds(), 2.0);
  EXPECT_EQ(f.controller.request_spacing().ns, kPhase3Spacing.ns);
}

TEST(Attack, ResetBeforeTriggerIsIgnored) {
  AttackFixture f;
  Attack attack(f.sim, f.monitor, f.controller, AttackConfig{});
  attack.arm();
  f.send_records({45});
  f.send_records({13, 13, 13, 13, 13, 13, 13, 13, 13});
  f.sim.run_until(f.sim.now() + milliseconds(1));
  EXPECT_FALSE(attack.timeline().drops_ended.has_value());
  EXPECT_EQ(f.controller.request_spacing().ns, AttackConfig{}.phase1_spacing.ns);
}

TEST(Attack, SecondTargetGetDoesNotRetrigger) {
  AttackFixture f;
  AttackConfig cfg;
  cfg.target_get_index = 1;
  Attack attack(f.sim, f.monitor, f.controller, cfg);
  attack.arm();
  f.send_records({45});
  f.send_gets(1);
  f.sim.run_until(f.sim.now() + milliseconds(10));
  const auto first_seen = attack.timeline().target_get_seen;
  ASSERT_TRUE(first_seen.has_value());
  f.send_gets(1);
  f.sim.run_until(f.sim.now() + milliseconds(10));
  EXPECT_EQ(attack.timeline().target_get_seen->ns, first_seen->ns);
}

TEST(Attack, StageTogglesDisablePieces) {
  AttackFixture f;
  AttackConfig cfg;
  cfg.target_get_index = 1;
  cfg.enable_spacing = false;
  cfg.enable_drops = false;
  cfg.enable_bandwidth_limit = false;
  Attack attack(f.sim, f.monitor, f.controller, cfg);
  attack.arm();
  EXPECT_EQ(f.controller.request_spacing().ns, 0);
  f.send_records({45});
  f.send_gets(1);
  f.sim.run_until(f.sim.now() + milliseconds(10));
  EXPECT_TRUE(attack.triggered());
  EXPECT_FALSE(f.controller.drops_active());
  EXPECT_EQ(f.controller.request_spacing().ns, 0);
}

}  // namespace
}  // namespace h2priv::core
