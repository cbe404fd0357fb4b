// NetworkController programs on a middlebox: request spacing, bandwidth,
// targeted drops.
#include "h2priv/core/controller.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "h2priv/tcp/segment.hpp"
#include "segment.hpp"

namespace h2priv::core {
namespace {

using util::milliseconds;

struct ControllerFixture {
  sim::Simulator sim;
  net::Middlebox mb{sim};
  NetworkController controller{sim, mb, sim::Rng(3)};
  std::vector<util::TimePoint> c2s_arrivals;
  std::vector<util::TimePoint> s2c_arrivals;

  ControllerFixture() {
    mb.set_output(net::Direction::kClientToServer,
                  [this](net::Packet&&) { c2s_arrivals.push_back(sim.now()); });
    mb.set_output(net::Direction::kServerToClient,
                  [this](net::Packet&&) { s2c_arrivals.push_back(sim.now()); });
  }

  net::Packet payload_packet(net::Direction dir, std::size_t n = 100) {
    const util::Bytes payload = util::patterned_bytes(n, 1);
    tcp::SegmentView seg;
    seg.seq = 1;
    seg.flags = tcp::kFlagAck;
    seg.payload = payload;
    return net::Packet{0, dir, testing::wire_segment(seg)};
  }

  net::Packet ack_packet(net::Direction dir) {
    tcp::SegmentView seg;
    seg.seq = 1;
    seg.ack = 100;
    seg.flags = tcp::kFlagAck;
    return net::Packet{0, dir, testing::wire_segment(seg)};
  }
};

TEST(NetworkController, SpacingEnforcesMinimumInterArrival) {
  ControllerFixture f;
  f.controller.set_request_spacing(milliseconds(50));
  for (int i = 0; i < 4; ++i) {
    f.mb.process(net::Direction::kClientToServer,
                 f.payload_packet(net::Direction::kClientToServer));
  }
  f.sim.run();
  ASSERT_EQ(f.c2s_arrivals.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE((f.c2s_arrivals[i] - f.c2s_arrivals[i - 1]).ns, milliseconds(50).ns);
  }
  EXPECT_EQ(f.controller.stats().packets_spaced, 3u) << "first packet passes unspaced";
  EXPECT_GT(f.controller.stats().total_added_delay.ns, 0);
}

TEST(NetworkController, PureAcksBypassSpacing) {
  ControllerFixture f;
  f.controller.set_request_spacing(milliseconds(50));
  f.mb.process(net::Direction::kClientToServer,
               f.payload_packet(net::Direction::kClientToServer));
  f.mb.process(net::Direction::kClientToServer,
               f.ack_packet(net::Direction::kClientToServer));
  f.mb.process(net::Direction::kClientToServer,
               f.payload_packet(net::Direction::kClientToServer));
  f.sim.run();
  ASSERT_EQ(f.c2s_arrivals.size(), 3u);
  // The ACK arrived immediately (first two arrivals at t=0).
  EXPECT_EQ(f.c2s_arrivals[0].ns, 0);
  EXPECT_EQ(f.c2s_arrivals[1].ns, 0);
  EXPECT_EQ(f.c2s_arrivals[2].ns, milliseconds(50).ns);
}

TEST(NetworkController, NaturallySpacedTrafficUnaffected) {
  ControllerFixture f;
  f.controller.set_request_spacing(milliseconds(10));
  for (int i = 0; i < 3; ++i) {
    f.sim.schedule(milliseconds(20 * i), [&f] {
      f.mb.process(net::Direction::kClientToServer,
                   f.payload_packet(net::Direction::kClientToServer));
    });
  }
  f.sim.run();
  EXPECT_EQ(f.controller.stats().packets_spaced, 0u);
}

TEST(NetworkController, ClearSpacingStopsHolding) {
  ControllerFixture f;
  f.controller.set_request_spacing(milliseconds(50));
  f.controller.set_request_spacing(util::Duration{0});
  for (int i = 0; i < 3; ++i) {
    f.mb.process(net::Direction::kClientToServer,
                 f.payload_packet(net::Direction::kClientToServer));
  }
  f.sim.run();
  for (const auto& t : f.c2s_arrivals) EXPECT_EQ(t.ns, 0);
}

TEST(NetworkController, BandwidthAppliesBothDirections) {
  ControllerFixture f;
  f.controller.set_bandwidth(util::megabits_per_second(8));  // 1 byte/us
  f.mb.process(net::Direction::kClientToServer,
               f.payload_packet(net::Direction::kClientToServer, 852));  // 900+IP = ~
  f.mb.process(net::Direction::kServerToClient,
               f.payload_packet(net::Direction::kServerToClient, 852));
  f.sim.run();
  ASSERT_EQ(f.c2s_arrivals.size(), 1u);
  ASSERT_EQ(f.s2c_arrivals.size(), 1u);
  EXPECT_GT(f.c2s_arrivals[0].ns, 0);
  EXPECT_GT(f.s2c_arrivals[0].ns, 0);
  f.controller.set_bandwidth(std::nullopt);
  f.mb.process(net::Direction::kClientToServer,
               f.payload_packet(net::Direction::kClientToServer));
  f.sim.run();
  // After clearing, forwarding is immediate relative to arrival time.
}

TEST(NetworkController, DropsTargetPayloadPacketsOnly) {
  ControllerFixture f;
  f.controller.start_drops(1.0, util::seconds(10));
  for (int i = 0; i < 5; ++i) {
    f.mb.process(net::Direction::kServerToClient,
                 f.payload_packet(net::Direction::kServerToClient));
    f.mb.process(net::Direction::kServerToClient,
                 f.ack_packet(net::Direction::kServerToClient));
  }
  f.sim.run_until(util::TimePoint{} + util::seconds(1));
  EXPECT_EQ(f.s2c_arrivals.size(), 5u) << "ACKs pass; application packets die";
  EXPECT_EQ(f.controller.stats().packets_dropped, 5u);
  EXPECT_TRUE(f.controller.drops_active());
}

TEST(NetworkController, DropsDoNotAffectClientToServer) {
  ControllerFixture f;
  f.controller.start_drops(1.0, util::seconds(10));
  f.mb.process(net::Direction::kClientToServer,
               f.payload_packet(net::Direction::kClientToServer));
  f.sim.run_until(util::TimePoint{} + util::seconds(1));
  EXPECT_EQ(f.c2s_arrivals.size(), 1u);
}

TEST(NetworkController, DropsAutoExpire) {
  ControllerFixture f;
  f.controller.start_drops(1.0, milliseconds(100));
  f.sim.run_until(util::TimePoint{} + milliseconds(200));
  EXPECT_FALSE(f.controller.drops_active());
  f.mb.process(net::Direction::kServerToClient,
               f.payload_packet(net::Direction::kServerToClient));
  f.sim.run();
  EXPECT_EQ(f.s2c_arrivals.size(), 1u);
}

TEST(NetworkController, StopDropsIsImmediateAndIdempotent) {
  ControllerFixture f;
  f.controller.start_drops(1.0, util::seconds(10));
  f.controller.stop_drops();
  f.controller.stop_drops();
  EXPECT_FALSE(f.controller.drops_active());
  f.mb.process(net::Direction::kServerToClient,
               f.payload_packet(net::Direction::kServerToClient));
  f.sim.run_until(util::TimePoint{} + util::seconds(1));
  EXPECT_EQ(f.s2c_arrivals.size(), 1u);
}

TEST(NetworkController, FractionalDropsAreApproximate) {
  ControllerFixture f;
  f.controller.start_drops(0.8, util::seconds(100));
  for (int i = 0; i < 2'000; ++i) {
    f.mb.process(net::Direction::kServerToClient,
                 f.payload_packet(net::Direction::kServerToClient));
  }
  f.sim.run_until(util::TimePoint{} + util::seconds(1));
  EXPECT_NEAR(static_cast<double>(f.controller.stats().packets_dropped), 1'600.0, 120.0);
}

}  // namespace
}  // namespace h2priv::core
