// TrafficMonitor: GET counting and reset-flurry detection on synthetic
// packets flowing through a middlebox.
#include "h2priv/core/monitor.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "h2priv/tcp/segment.hpp"
#include "h2priv/tls/record.hpp"
#include "segment.hpp"

namespace h2priv::core {
namespace {

constexpr std::uint64_t kSecret = 4242;

struct MonitorFixture {
  sim::Simulator sim;
  net::Middlebox mb{sim};
  TrafficMonitor monitor{mb};
  tls::SealContext client_seal{kSecret, 0};
  std::uint64_t client_seq = 1;  // TCP stream offset (seq space, SYN at 0)

  MonitorFixture() {
    mb.set_output(net::Direction::kClientToServer, [](net::Packet&&) {});
    mb.set_output(net::Direction::kServerToClient, [](net::Packet&&) {});
  }

  /// Sends client->server application records packed into one TCP segment.
  void client_records(std::initializer_list<std::size_t> plaintext_sizes) {
    util::Bytes payload;
    for (const std::size_t n : plaintext_sizes) {
      const util::Bytes rec = client_seal.seal(tls::ContentType::kApplicationData,
                                               util::patterned_bytes(n, 1));
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
    sim.run();
  }

  void client_handshake_record(std::size_t n) {
    const util::Bytes rec =
        client_seal.seal(tls::ContentType::kHandshake, util::patterned_bytes(n, 1));
    tcp::SegmentView seg;
    seg.seq = client_seq;
    seg.flags = tcp::kFlagAck;
    seg.payload = rec;
    client_seq += rec.size();
    mb.process(net::Direction::kClientToServer,
               net::Packet{0, net::Direction::kClientToServer,
                           testing::wire_segment(seg)});
    sim.run();
  }
};

TEST(TrafficMonitor, CountsGetSizedRecordsSkippingSetup) {
  MonitorFixture f;
  f.client_records({45});  // client SETTINGS flight: skipped as setup
  EXPECT_EQ(f.monitor.get_count(), 0);
  f.client_records({60});  // first real GET
  EXPECT_EQ(f.monitor.get_count(), 1);
  f.client_records({40});
  f.client_records({85});
  EXPECT_EQ(f.monitor.get_count(), 3);
}

TEST(TrafficMonitor, IgnoresHandshakeAndControlRecords) {
  MonitorFixture f;
  f.client_handshake_record(512);  // ClientHello: type 22
  f.client_records({45});          // setup skip
  f.client_records({13});          // WINDOW_UPDATE-sized: below threshold
  f.client_records({9});           // SETTINGS ack
  f.client_records({600});         // beyond max GET size
  EXPECT_EQ(f.monitor.get_count(), 0);
}

TEST(TrafficMonitor, GetFilterBoundsAndSetupSkip) {
  MonitorFixture f;
  f.client_records({24});          // one byte short: not a GET, no setup skip
  f.client_handshake_record(100);  // GET-sized but not application data
  f.client_records({513});         // one byte over
  EXPECT_EQ(f.monitor.get_count(), 0);
  f.client_records({25});  // the first match is the SETTINGS flight
  EXPECT_EQ(f.monitor.get_count(), 0);
  f.client_records({25});
  f.client_records({512});
  EXPECT_EQ(f.monitor.get_count(), 2);
  f.client_records({24});
  f.client_records({513});
  f.client_handshake_record(100);
  EXPECT_EQ(f.monitor.get_count(), 2);
}

TEST(TrafficMonitor, GetCallbackReportsIndexAndTime) {
  MonitorFixture f;
  f.client_records({45});  // setup
  std::vector<int> indices;
  f.monitor.on_get_request = [&](int index,
                                 util::TimePoint) { indices.push_back(index); };
  f.client_records({50});
  f.client_records({50});
  EXPECT_EQ(indices, (std::vector<int>{1, 2}));
}

TEST(TrafficMonitor, ResetFlurryDetectedOnlyWhenCoalesced) {
  MonitorFixture f;
  f.client_records({45});  // setup
  int resets = 0;
  f.monitor.on_reset_detected = [&](util::TimePoint) { ++resets; };

  // Ten tiny records one per packet (re-GET lookalikes): no detection.
  for (int i = 0; i < 10; ++i) f.client_records({13});
  EXPECT_EQ(resets, 0);

  // Ten tiny records coalesced in ONE segment: a reset episode.
  f.client_records({13, 13, 13, 13, 13, 13, 13, 13, 13, 13});
  EXPECT_EQ(resets, 1);
}

TEST(TrafficMonitor, ResetThresholdIsEight) {
  MonitorFixture f;
  f.client_records({45});
  int resets = 0;
  f.monitor.on_reset_detected = [&](util::TimePoint) { ++resets; };
  f.client_records({13, 13, 13, 13, 13, 13, 13});  // 7: below threshold
  EXPECT_EQ(resets, 0);
  f.client_records({13, 13, 13, 13, 13, 13, 13, 13});  // 8: detected
  EXPECT_EQ(resets, 1);
}

TEST(TrafficMonitor, PacketLogCapturesHeaders) {
  MonitorFixture f;
  std::vector<analysis::PacketObservation> observed;
  f.monitor.on_packet_observed = [&](const analysis::PacketObservation& obs) {
    observed.push_back(obs);
  };
  f.client_records({45});
  ASSERT_EQ(observed.size(), 1u);
  const auto& p = observed[0];
  EXPECT_EQ(p.dir, net::Direction::kClientToServer);
  EXPECT_EQ(p.seq, 1u);
  EXPECT_GT(p.payload_len, 0u);
  EXPECT_EQ(f.monitor.packets_seen(), 1u);
}

TEST(TrafficMonitor, RecordsExposedPerDirection) {
  MonitorFixture f;
  f.client_records({45});
  f.client_records({50});
  EXPECT_EQ(f.monitor.records(net::Direction::kClientToServer).size(), 2u);
  EXPECT_TRUE(f.monitor.records(net::Direction::kServerToClient).empty());
}

}  // namespace
}  // namespace h2priv::core
