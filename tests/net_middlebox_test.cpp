#include "h2priv/net/middlebox.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace h2priv::net {
namespace {

using util::microseconds;
using util::milliseconds;

Packet make_packet(std::size_t payload, Direction dir) {
  return Packet{1, dir, util::SharedBytes::copy_of(util::patterned_bytes(payload, 0))};
}

struct MbFixture {
  sim::Simulator sim;
  Middlebox mb{sim};
  std::vector<util::TimePoint> c2s_out;
  std::vector<util::TimePoint> s2c_out;

  MbFixture() {
    mb.set_output(Direction::kClientToServer,
                  [this](Packet&&) { c2s_out.push_back(sim.now()); });
    mb.set_output(Direction::kServerToClient,
                  [this](Packet&&) { s2c_out.push_back(sim.now()); });
  }
};

TEST(Middlebox, ForwardsImmediatelyByDefault) {
  MbFixture f;
  f.mb.process(Direction::kClientToServer, make_packet(100, Direction::kClientToServer));
  f.sim.run();
  ASSERT_EQ(f.c2s_out.size(), 1u);
  EXPECT_EQ(f.c2s_out[0].ns, 0);
  EXPECT_TRUE(f.s2c_out.empty());
}

TEST(Middlebox, DirectionsAreIndependent) {
  MbFixture f;
  f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  f.mb.process(Direction::kServerToClient, make_packet(10, Direction::kServerToClient));
  f.sim.run();
  EXPECT_EQ(f.c2s_out.size(), 1u);
  EXPECT_EQ(f.s2c_out.size(), 1u);
}

TEST(Middlebox, UnwiredOutputThrows) {
  sim::Simulator sim;
  Middlebox mb(sim);
  EXPECT_THROW(
      mb.process(Direction::kClientToServer, make_packet(1, Direction::kClientToServer)),
      std::logic_error);
}

TEST(Middlebox, TapSeesAllPacketsIncludingDropped) {
  MbFixture f;
  int tapped = 0;
  f.mb.add_tap([&](Direction, const Packet&, util::TimePoint) { ++tapped; });
  f.mb.set_drop_fn(Direction::kClientToServer, [](const Packet&) { return true; });
  for (int i = 0; i < 5; ++i) {
    f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  }
  f.sim.run();
  EXPECT_EQ(tapped, 5);
  EXPECT_TRUE(f.c2s_out.empty());
  EXPECT_EQ(f.mb.stats(Direction::kClientToServer).dropped, 5u);
  EXPECT_EQ(f.mb.stats(Direction::kClientToServer).seen, 5u);
}

TEST(Middlebox, DropFnIsSelective) {
  MbFixture f;
  f.mb.set_drop_fn(Direction::kClientToServer,
                   [](const Packet& p) { return p.segment.size() > 50; });
  f.mb.process(Direction::kClientToServer, make_packet(100, Direction::kClientToServer));
  f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  f.sim.run();
  EXPECT_EQ(f.c2s_out.size(), 1u);
}

TEST(Middlebox, ClearingDropFnRestoresForwarding) {
  MbFixture f;
  f.mb.set_drop_fn(Direction::kClientToServer, [](const Packet&) { return true; });
  f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  f.mb.set_drop_fn(Direction::kClientToServer, nullptr);
  f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  f.sim.run();
  EXPECT_EQ(f.c2s_out.size(), 1u);
}

TEST(Middlebox, BandwidthShapingSerializesFifo) {
  MbFixture f;
  // 8 Mbps = 1 byte/us; 100-byte payload + 20 IP = 120 us per packet.
  f.mb.set_bandwidth_limit(Direction::kServerToClient, util::megabits_per_second(8));
  for (int i = 0; i < 3; ++i) {
    f.mb.process(Direction::kServerToClient,
                 make_packet(100, Direction::kServerToClient));
  }
  f.sim.run();
  ASSERT_EQ(f.s2c_out.size(), 3u);
  EXPECT_EQ(f.s2c_out[0].ns, microseconds(120).ns);
  EXPECT_EQ(f.s2c_out[1].ns, microseconds(240).ns);
  EXPECT_EQ(f.s2c_out[2].ns, microseconds(360).ns);
}

TEST(Middlebox, RemovingBandwidthLimitStopsShaping) {
  MbFixture f;
  f.mb.set_bandwidth_limit(Direction::kServerToClient, util::megabits_per_second(8));
  f.mb.set_bandwidth_limit(Direction::kServerToClient, std::nullopt);
  f.mb.process(Direction::kServerToClient, make_packet(100, Direction::kServerToClient));
  f.sim.run();
  ASSERT_EQ(f.s2c_out.size(), 1u);
  EXPECT_EQ(f.s2c_out[0].ns, 0);
}

TEST(Middlebox, HoldFnDelaysSelectedPackets) {
  MbFixture f;
  f.mb.set_hold_fn(Direction::kClientToServer,
                   [](const Packet& p, util::TimePoint ready) {
                     return p.segment.size() > 50 ? ready + milliseconds(5) : ready;
                   });
  f.mb.process(Direction::kClientToServer, make_packet(100, Direction::kClientToServer));
  f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  f.sim.run();
  ASSERT_EQ(f.c2s_out.size(), 2u);
  // The small packet overtakes the held one (reordering, like tc netem).
  EXPECT_EQ(f.c2s_out[0].ns, 0);
  EXPECT_EQ(f.c2s_out[1].ns, milliseconds(5).ns);
  EXPECT_EQ(f.mb.stats(Direction::kClientToServer).held, 1u);
}

TEST(Middlebox, HoldFnMustNotReleaseEarly) {
  MbFixture f;
  f.mb.set_hold_fn(Direction::kClientToServer, [](const Packet&, util::TimePoint ready) {
    return ready - milliseconds(1);
  });
  EXPECT_THROW(
      f.mb.process(Direction::kClientToServer,
                   make_packet(10, Direction::kClientToServer)),
      std::logic_error);
}

TEST(Middlebox, ShaperThenHoldCompose) {
  MbFixture f;
  f.mb.set_bandwidth_limit(Direction::kClientToServer, util::megabits_per_second(8));
  f.mb.set_hold_fn(Direction::kClientToServer, [](const Packet&, util::TimePoint ready) {
    return ready + milliseconds(1);
  });
  f.mb.process(Direction::kClientToServer, make_packet(100, Direction::kClientToServer));
  f.sim.run();
  ASSERT_EQ(f.c2s_out.size(), 1u);
  EXPECT_EQ(f.c2s_out[0].ns, microseconds(120).ns + milliseconds(1).ns);
}

TEST(Middlebox, StatsPerDirection) {
  MbFixture f;
  f.mb.process(Direction::kClientToServer, make_packet(10, Direction::kClientToServer));
  f.mb.process(Direction::kServerToClient, make_packet(10, Direction::kServerToClient));
  f.mb.process(Direction::kServerToClient, make_packet(10, Direction::kServerToClient));
  f.sim.run();
  EXPECT_EQ(f.mb.stats(Direction::kClientToServer).forwarded, 1u);
  EXPECT_EQ(f.mb.stats(Direction::kServerToClient).forwarded, 2u);
}

}  // namespace
}  // namespace h2priv::net
