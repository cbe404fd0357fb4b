// Capture→replay fidelity: a .h2t trace recorded from a live run must
// reproduce the exact attack verdict offline, the stored summary must match
// the live RunResult, corpus generation must be byte-identical for any
// --jobs value, and the obs export (METRICS_JSON content) must stay
// bit-identical across job counts with capture enabled.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/obs/export.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/tls/record.hpp"
#include "h2priv/util/units.hpp"
#include "scratch_path.hpp"

namespace h2priv {
namespace {

namespace fs = std::filesystem;

/// The two golden-trace scenarios: fig2 (50 ms spacing sweep point, passive
/// adversary) and table2 (active attack).
core::RunConfig scenario(const std::string& name) {
  core::RunConfig cfg;
  if (name == "fig2") {
    cfg.manual_spacing = util::milliseconds(50);
  } else {
    cfg.attack_enabled = true;
  }
  cfg.capture.scenario = name;
  return cfg;
}

void expect_verdict_matches_outcome(const capture::ObjectVerdict& v,
                                    const core::ObjectOutcome& o,
                                    const std::string& ctx) {
  EXPECT_EQ(v.label, o.label) << ctx;
  EXPECT_EQ(v.true_size, o.true_size) << ctx;
  EXPECT_EQ(v.has_dom, o.primary_dom.has_value()) << ctx;
  if (o.primary_dom) {
    EXPECT_EQ(v.primary_dom, *o.primary_dom) << ctx;
  }
  EXPECT_EQ(v.serialized_primary, o.serialized_primary) << ctx;
  EXPECT_EQ(v.any_serialized_copy, o.any_serialized_copy) << ctx;
  EXPECT_EQ(v.identified, o.identified) << ctx;
  EXPECT_EQ(v.attack_success, o.attack_success) << ctx;
}

TEST(CaptureReplay, VerdictsBitIdenticalToLive) {
  for (const std::string name : {"fig2", "table2"}) {
    for (const std::uint64_t seed : {1000ULL, 1001ULL}) {
      const std::string ctx = name + "/" + std::to_string(seed);
      const std::string path =
          testing::scratch_path("replay_" + name + "_" + std::to_string(seed) + ".h2t")
              .string();
      core::RunConfig cfg = scenario(name);
      cfg.seed = seed;
      cfg.capture.path = path;
      const core::RunResult live = capture::record_run(cfg);

      const capture::TraceFile trace = capture::TraceFile::open(path);
      EXPECT_EQ(trace.meta().seed, seed) << ctx;
      EXPECT_EQ(trace.meta().scenario, name) << ctx;
      EXPECT_EQ(trace.packet_count(), live.monitor_packets) << ctx;

      // Stored summary vs the live RunResult it was derived from.
      ASSERT_TRUE(trace.has_section(capture::Section::kSummary)) << ctx;
      const capture::TraceSummary stored = trace.summary();
      EXPECT_EQ(stored.monitor_packets, live.monitor_packets) << ctx;
      EXPECT_EQ(stored.monitor_gets, live.monitor_gets) << ctx;
      expect_verdict_matches_outcome(stored.html, live.html, ctx + " html");
      for (std::size_t i = 0; i < live.emblems_by_position.size(); ++i) {
        expect_verdict_matches_outcome(stored.emblems_by_position[i],
                                       live.emblems_by_position[i],
                                       ctx + " emblem " + std::to_string(i));
      }
      EXPECT_EQ(stored.predicted_sequence, live.predicted_sequence) << ctx;
      EXPECT_EQ(stored.sequence_positions_correct,
                live.sequence_positions_correct) << ctx;

      // Offline replay through the same analysis stack: bit-identical.
      const capture::ReplayResult replayed = capture::replay(trace);
      EXPECT_TRUE(replayed.records_match) << ctx;
      EXPECT_TRUE(replayed.summary_matches) << ctx;
      EXPECT_EQ(replayed.summary, stored) << ctx;
      std::remove(path.c_str());
    }
  }
}

TEST(CaptureReplay, GroundTruthSurvivesTheRoundTrip) {
  const std::string path = testing::scratch_path("replay_truth.h2t").string();
  core::RunConfig cfg = scenario("table2");
  cfg.seed = 1000;
  cfg.capture.path = path;
  const core::RunResult live = capture::record_run(cfg);
  ASSERT_NE(live.truth, nullptr);

  const capture::TraceFile trace = capture::TraceFile::open(path);
  ASSERT_TRUE(trace.has_section(capture::Section::kGroundTruth));
  const analysis::GroundTruth stored_truth = trace.ground_truth();
  const auto& live_inst = live.truth->instances();
  const auto& trace_inst = stored_truth.instances();
  ASSERT_EQ(trace_inst.size(), live_inst.size());
  for (std::size_t i = 0; i < live_inst.size(); ++i) {
    EXPECT_EQ(trace_inst[i].id, live_inst[i].id);
    EXPECT_EQ(trace_inst[i].object_id, live_inst[i].object_id);
    EXPECT_EQ(trace_inst[i].stream_id, live_inst[i].stream_id);
    EXPECT_EQ(trace_inst[i].duplicate, live_inst[i].duplicate);
    EXPECT_EQ(trace_inst[i].complete, live_inst[i].complete);
    ASSERT_EQ(trace_inst[i].data.size(), live_inst[i].data.size());
    for (std::size_t j = 0; j < live_inst[i].data.size(); ++j) {
      EXPECT_EQ(trace_inst[i].data[j].begin, live_inst[i].data[j].begin);
      EXPECT_EQ(trace_inst[i].data[j].end, live_inst[i].data[j].end);
    }
    ASSERT_EQ(trace_inst[i].headers.size(), live_inst[i].headers.size());
    // DoM is a pure function of the intervals; equality above implies it,
    // but assert the headline number directly too.
    EXPECT_EQ(stored_truth.degree_of_multiplexing(trace_inst[i].id),
              live.truth->degree_of_multiplexing(live_inst[i].id));
  }
  std::remove(path.c_str());
}

util::Bytes file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return util::Bytes{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

TEST(CaptureReplay, CorpusIsByteIdenticalForAnyJobCount) {
  const fs::path base = testing::scratch_path("corpus_jobs");
  const fs::path dir1 = base / "j1";
  const fs::path dir4 = base / "j4";
  fs::remove_all(base);

  const int runs = 4;
  for (const auto& [dir, jobs] : {std::pair{dir1, 1}, std::pair{dir4, 4}}) {
    core::RunConfig cfg = scenario("table2");
    cfg.seed = 1000;
    cfg.capture.corpus_dir = dir.string();
    const capture::RecordedCorpus recorded =
        capture::record_corpus(cfg, runs, core::Parallelism{jobs});
    ASSERT_EQ(static_cast<int>(recorded.results.size()), runs);
  }

  EXPECT_EQ(file_bytes(dir1 / "manifest.txt"), file_bytes(dir4 / "manifest.txt"));
  const capture::Manifest manifest =
      capture::read_manifest((dir1 / "manifest.txt").string());
  ASSERT_EQ(manifest.entries.size(), static_cast<std::size_t>(runs));
  EXPECT_EQ(manifest.scenario, "table2");
  EXPECT_EQ(manifest.base_seed, 1000u);
  for (const capture::ManifestEntry& e : manifest.entries) {
    EXPECT_EQ(file_bytes(dir1 / e.file), file_bytes(dir4 / e.file)) << e.file;
    EXPECT_EQ(capture::digest_file((dir1 / e.file).string()), e.digest) << e.file;
  }
  fs::remove_all(base);
}

TEST(CaptureReplay, EmptyCorpusStillWritesItsManifest) {
  const fs::path dir = testing::scratch_path("corpus_empty");
  fs::remove_all(dir);
  core::RunConfig cfg = scenario("table2");
  cfg.seed = 1000;
  cfg.capture.corpus_dir = dir.string();
  const capture::RecordedCorpus recorded =
      capture::record_corpus(cfg, 0, core::Parallelism{1});
  EXPECT_TRUE(recorded.results.empty());
  const capture::Manifest manifest =
      capture::read_manifest((dir / "manifest.txt").string());
  EXPECT_TRUE(manifest.entries.empty());
  EXPECT_EQ(manifest.scenario, "table2");
  EXPECT_EQ(manifest.base_seed, 1000u);
  fs::remove_all(dir);
}

void zero_scheduling_dependent(obs::Registry& r) {
  r.set(obs::Counter::kPoolChunksReused, 0);
  r.set(obs::Counter::kPoolChunksFresh, 0);
  r.set(obs::Counter::kPoolChunksOversize, 0);
}

/// Batch with capture on, private registry; returns the deterministic part
/// of the metrics export — the exact METRICS_JSON payload a bench prints.
std::string capture_batch_json(const fs::path& dir, int jobs) {
  obs::ScopedRegistry scoped;
  core::RunConfig cfg = scenario("fig2");
  cfg.seed = 1000;
  cfg.capture.corpus_dir = dir.string();
  const capture::RecordedCorpus recorded =
      capture::record_corpus(cfg, 4, core::Parallelism{jobs});
  EXPECT_EQ(recorded.results.size(), 4u);
  zero_scheduling_dependent(scoped.registry());
  return obs::to_json(scoped.registry());
}

TEST(CaptureReplay, MetricsJsonBitIdenticalAcrossJobsWithCaptureOn) {
  const fs::path base = testing::scratch_path("corpus_metrics");
  fs::remove_all(base);
  const std::string serial = capture_batch_json(base / "j1", 1);
  const std::string threaded = capture_batch_json(base / "j4", 4);
  EXPECT_EQ(serial, threaded);
  // Capture counters must actually be in the export (non-zero, fig2 writes
  // 4 traces), not merely equal-by-absence.
  EXPECT_NE(serial.find("capture.traces_written"), std::string::npos);
  EXPECT_NE(serial.find("capture.bytes_written"), std::string::npos);
  fs::remove_all(base);
}

bool same_record_vec(const std::vector<analysis::RecordObservation>& a,
                     const std::vector<analysis::RecordObservation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].dir != b[i].dir || a[i].type != b[i].type ||
        a[i].ciphertext_len != b[i].ciphertext_len ||
        a[i].stream_offset != b[i].stream_offset) {
      return false;
    }
  }
  return true;
}

TEST(CaptureReplay, ChunkedEngineMatchesLiveRun) {
  for (const std::string name : {"fig2", "table2"}) {
    const std::string ctx = name;
    const std::string path =
        testing::scratch_path("replay_chunked_" + name + ".h2t").string();
    core::RunConfig cfg = scenario(name);
    cfg.seed = 1000;
    cfg.capture.path = path;
    core::RunObservations live_obs;
    cfg.observations_out = &live_obs;
    const core::RunResult live = capture::record_run(cfg);

    // Monitor state: the replay engine (streaming cursor + per-packet
    // payload synthesis) must land the analysis exactly where the live
    // monitor ended up.
    const capture::TraceFile trace = capture::TraceFile::open(path);
    core::TrafficMonitor monitor;
    capture::replay_into(trace, monitor);
    EXPECT_EQ(monitor.packets_seen(), live.monitor_packets) << ctx;
    EXPECT_EQ(monitor.get_count(), live.monitor_gets) << ctx;
    EXPECT_TRUE(same_record_vec(monitor.records(net::Direction::kClientToServer),
                                live_obs.records_c2s))
        << ctx;
    EXPECT_TRUE(same_record_vec(monitor.records(net::Direction::kServerToClient),
                                live_obs.records_s2c))
        << ctx;

    // Full verdicts: chunked replay and the records-direct fast path (the
    // calls corpus::score_corpus makes per trace) must both reproduce the
    // live run's verdict.
    const capture::TraceSummary live_summary = capture::summary_of(live);
    const capture::ReplayResult replayed = capture::replay(trace);
    EXPECT_TRUE(replayed.records_match) << ctx;
    EXPECT_TRUE(replayed.summary_matches) << ctx;
    EXPECT_EQ(replayed.summary, live_summary) << ctx;
    const std::vector<analysis::RecordObservation> s2c =
        trace.records(net::Direction::kServerToClient);
    const core::ObjectPredictor predictor(s2c, core::isidewith_catalog());
    const std::int64_t gets =
        capture::count_gets(trace.records(net::Direction::kClientToServer));
    EXPECT_EQ(gets, live.monitor_gets) << ctx;
    const capture::TraceSummary direct = capture::score_with_predictor(
        trace.meta(), trace.ground_truth(), predictor, trace.packet_count(), gets);
    EXPECT_EQ(direct, live_summary) << ctx;
    std::remove(path.c_str());
  }
}

TEST(CaptureReplay, RecordRunFillsTheCallersObservations) {
  // The trace is written from the run's observations after the run, so the
  // bytes cannot depend on whose RunObservations holds them, and a caller
  // that passes its own gets exactly what the trace stores.
  const std::string own = testing::scratch_path("record_own.h2t").string();
  const std::string shared = testing::scratch_path("record_shared.h2t").string();
  core::RunConfig cfg = scenario("table2");
  cfg.seed = 1000;
  cfg.capture.path = own;
  (void)capture::record_run(cfg);
  core::RunObservations observations;
  cfg.capture.path = shared;
  cfg.observations_out = &observations;
  const core::RunResult live = capture::record_run(cfg);
  EXPECT_EQ(file_bytes(own), file_bytes(shared));

  const capture::TraceFile trace = capture::TraceFile::open(shared);
  ASSERT_EQ(observations.packets.size(), live.monitor_packets);
  ASSERT_EQ(trace.packet_count(), live.monitor_packets);
  analysis::PacketObservation p;
  std::size_t i = 0;
  for (capture::PacketCursor cursor = trace.packets(); cursor.next(p); ++i) {
    const analysis::PacketObservation& o = observations.packets[i];
    EXPECT_TRUE(p.time == o.time && p.dir == o.dir && p.wire_size == o.wire_size &&
                p.seq == o.seq && p.ack == o.ack && p.flags == o.flags &&
                p.payload_len == o.payload_len)
        << "packet " << i;
  }
  EXPECT_TRUE(same_record_vec(trace.records(net::Direction::kClientToServer),
                              observations.records_c2s));
  EXPECT_TRUE(same_record_vec(trace.records(net::Direction::kServerToClient),
                              observations.records_s2c));
  EXPECT_EQ(trace.meta().attack_horizon_ns, observations.attack_horizon_ns);
  EXPECT_GT(observations.attack_horizon_ns, 0);

  // No trace named: nothing to record.
  cfg.capture = core::CaptureOptions{};
  EXPECT_THROW((void)capture::record_run(cfg), std::invalid_argument);
  std::remove(own.c_str());
  std::remove(shared.c_str());
}

TEST(CaptureReplay, CountGetsAppliesTheMonitorsGetFilter) {
  // Stored records carry the ciphertext length; plaintext = it minus the tag.
  const auto record = [](tls::ContentType type, std::size_t plaintext) {
    analysis::RecordObservation rec;
    rec.dir = net::Direction::kClientToServer;
    rec.type = type;
    rec.ciphertext_len = plaintext + tls::kAeadOverhead;
    return rec;
  };
  constexpr auto kApp = tls::ContentType::kApplicationData;
  constexpr auto kHandshake = tls::ContentType::kHandshake;
  // The same sequence GetFilterBoundsAndSetupSkip sends through the monitor.
  std::vector<analysis::RecordObservation> c2s = {
      record(kApp, 24), record(kHandshake, 100), record(kApp, 513),
      record(kApp, 25)};
  EXPECT_EQ(capture::count_gets(c2s), 0);  // the 25 is the setup skip
  c2s.push_back(record(kApp, 25));
  c2s.push_back(record(kApp, 512));
  EXPECT_EQ(capture::count_gets(c2s), 2);
  c2s.push_back(record(kApp, 24));
  c2s.push_back(record(kApp, 513));
  c2s.push_back(record(kHandshake, 100));
  EXPECT_EQ(capture::count_gets(c2s), 2);
}

TEST(CaptureReplay, ReplayCountsReadsIntoObs) {
  const std::string path = testing::scratch_path("replay_obs.h2t").string();
  core::RunConfig cfg = scenario("fig2");
  cfg.seed = 1000;
  cfg.capture.path = path;
  (void)capture::record_run(cfg);

  obs::ScopedRegistry scoped;
  const capture::TraceFile trace = capture::TraceFile::open(path);
  (void)capture::replay(trace);
  // Every open maps the whole file once; replay reads through that mapping.
  EXPECT_EQ(scoped.registry().get(obs::Counter::kCorpusBytesMapped), trace.file_size());
  EXPECT_EQ(trace.file_size(), fs::file_size(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace h2priv
