#include "probes.hpp"

#include <algorithm>

#include "h2priv/h2/frame.hpp"
#include "h2priv/hpack/codec.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tcp/segment.hpp"
#include "h2priv/tls/record.hpp"
#include "h2priv/web/isidewith.hpp"

namespace perfbench {

namespace h = h2priv;

namespace {

// Frame header (9) plus TLS header and tag (5 + 16): the wire span the
// ground truth records for one DATA frame sealed into one record.
constexpr std::uint64_t kDataFrameOverhead = 9 + h::tls::kHeaderBytes + h::tls::kAeadOverhead;
// Pending events the sim probe keeps in flight; a table2 load peaks at a
// few hundred.
constexpr int kSimProbeDepth = 256;

const h::util::Bytes& zero_payload() {
  static const h::util::Bytes bytes(h::tls::kMaxPlaintext, 0);
  return bytes;
}

h::util::BytesView payload(std::size_t n) {
  return h::util::BytesView(zero_payload()).first(std::min(n, h::tls::kMaxPlaintext));
}

/// Times `body` under a span and a private registry; returns its units.
template <class Body>
void timed_probe(SpanLog& log, const char* name, std::uint64_t request, LayerCost& cost,
                 Body&& body) {
  h::obs::ScopedRegistry isolated;
  const int id = log.open(name, request);
  const std::uint64_t units = body();
  log.close(id);
  cost.probe_ns += log.spans()[static_cast<std::size_t>(id)].dur();
  cost.probe_units += units;
}

struct Ticker {
  h::sim::Simulator* sim;
  std::uint64_t* left;
  std::uint64_t state;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    const std::uint64_t next = state * 6364136223846793005ULL + 1442695040888963407ULL;
    sim->schedule(h::util::microseconds(static_cast<std::int64_t>(1 + (next >> 54))),
                  Ticker{sim, left, next});
  }
};

}  // namespace

void StackCosts::add_real_units(const h::obs::Registry& d) {
  using C = h::obs::Counter;
  sim.real_units += d.get(C::kSimEventsExecuted);
  tcp.real_units += d.get(C::kTcpSegmentsSent);
  tls.real_units += d.get(C::kTlsRecordsSealed);
  for (unsigned t = 0; t <= 10; ++t) h2.real_units += d.get(h::obs::h2_frame_sent_counter(t));
  hpack.real_units += d.get(C::kH2HeadersSent);
}

void StackCosts::report(double measured_ns, double other_ns, Metrics& out,
                        Result& result) const {
  out["sim.ns_per_event"] = {sim.ns_per_unit(), "ns"};
  out["tcp.ns_per_segment"] = {tcp.ns_per_unit(), "ns"};
  out["tls.ns_per_record"] = {tls.ns_per_unit(), "ns"};
  out["h2.ns_per_frame"] = {h2.ns_per_unit(), "ns"};
  out["hpack.ns_per_block"] = {hpack.ns_per_unit(), "ns"};
  out["tls.share"] = {100.0 * ratio(tls.estimate_ns(), measured_ns), "%"};
  const double unattributed = measured_ns - other_ns - estimate_ns();
  out["core.unattributed_share"] = {100.0 * ratio(unattributed, measured_ns), "%"};
  if (unattributed < 0) {
    result.check_failures.emplace_back("probes: layer estimates exceed the measured loads");
  }
  const std::pair<const char*, const LayerCost*> layers[] = {
      {"share.sim", &sim}, {"share.tcp", &tcp},     {"share.tls", &tls},
      {"share.h2", &h2},   {"share.hpack", &hpack},
  };
  for (const auto& [name, cost] : layers) {
    result.notes.emplace_back(name, 100.0 * ratio(cost->estimate_ns(), measured_ns));
  }
}

void probe_stack(SpanLog& log, std::uint64_t request,
                 const h::core::RunObservations& observations,
                 const h::analysis::GroundTruth& truth, std::uint64_t events,
                 StackCosts& costs) {
  timed_probe(log, "tls.probe", request, costs.tls, [&] {
    h::tls::SealContext seal(0x5eed, 1);
    h::tls::OpenContext open(0x5eed, 1);
    std::uint64_t n = 0;
    for (const auto* records : {&observations.records_c2s, &observations.records_s2c}) {
      for (const h::analysis::RecordObservation& r : *records) {
        const h::util::SharedBytes wire =
            seal.seal_shared(r.type, payload(r.plaintext_estimate()));
        std::size_t consumed = 0;
        (void)open.open_one(wire.view(), consumed);
        ++n;
      }
    }
    return n;
  });

  timed_probe(log, "tcp.probe", request, costs.tcp, [&] {
    h::util::ByteWriter w(h::tcp::kHeaderBytes + h::tls::kMaxPlaintext);
    std::uint64_t n = 0;
    for (const h::analysis::PacketObservation& p : observations.packets) {
      h::tcp::SegmentView s;
      s.src_port = p.dir == h::net::Direction::kClientToServer ? 50000 : 443;
      s.dst_port = p.dir == h::net::Direction::kClientToServer ? 443 : 50000;
      s.seq = p.seq;
      s.ack = p.ack;
      s.flags = p.flags;
      s.window = 65535;
      s.payload = payload(p.payload_len);
      w.clear();
      h::tcp::encode_segment(w, s);
      (void)h::tcp::peek(w.view());
      ++n;
    }
    return n;
  });

  timed_probe(log, "h2.probe", request, costs.h2, [&] {
    h::util::ByteWriter w(9 + h::tls::kMaxPlaintext);
    h::h2::FrameDecoder decoder;
    std::uint64_t n = 0;
    for (const h::analysis::ResponseInstance& inst : truth.instances()) {
      for (const h::analysis::ByteInterval& span : inst.data) {
        const std::uint64_t size = span.size();
        const std::size_t body =
            size > kDataFrameOverhead ? static_cast<std::size_t>(size - kDataFrameOverhead) : 0;
        w.clear();
        h::h2::encode_data_into(w, std::max<std::uint32_t>(1, inst.stream_id),
                                payload(std::min<std::size_t>(body, h::h2::kDefaultMaxFrameSize)),
                                false, 0);
        decoder.feed(w.view());
        (void)decoder.next();
        ++n;
      }
    }
    return n;
  });

  // Request header lists are built outside the span: the probe times HPACK,
  // not string construction.
  static const h::web::IsideWithSite site = h::web::build_isidewith_site();
  std::vector<h::hpack::HeaderList> requests;
  requests.reserve(truth.instances().size());
  for (const h::analysis::ResponseInstance& inst : truth.instances()) {
    requests.push_back({
        {":method", "GET"},
        {":scheme", "https"},
        {":authority", "www.isidewith.com"},
        {":path", site.site.object(inst.object_id).path},
        {"user-agent", "Mozilla/5.0 (sim) Gecko/20100101 Firefox/74.0"},
        {"accept", "*/*"},
    });
  }
  timed_probe(log, "hpack.probe", request, costs.hpack, [&] {
    h::hpack::Encoder encoder;
    h::hpack::Decoder decoder;
    std::uint64_t n = 0;
    for (const h::hpack::HeaderList& headers : requests) {
      (void)decoder.decode(encoder.encode(headers));
      ++n;
    }
    return n;
  });

  timed_probe(log, "sim.probe", request, costs.sim, [&] {
    h::sim::Simulator sim;
    std::uint64_t left = events;
    for (int i = 0; i < kSimProbeDepth; ++i) {
      sim.schedule(h::util::microseconds(i), Ticker{&sim, &left, request + static_cast<std::uint64_t>(i)});
    }
    sim.run();
    return static_cast<std::uint64_t>(sim.executed());
  });
}

}  // namespace perfbench
