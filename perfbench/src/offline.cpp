// offline_score: set-up generates a table2 corpus (live runs, capture on);
// the timed ops are corpus::score_corpus passes (kNN, one worker), each
// trace of a pass being one op with the pass's time per trace as its
// latency. Capture reads (mmap open, range-coder block decode, block cache)
// and analysis do the work and the live stack does none, so every stack
// optimisation is bypassed here. After the window every trace is
// replay-verified with capture::replay(TraceFile); the traced run also times
// that replay pass.
#include <filesystem>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/corpus/score.hpp"
#include "h2priv/corpus/store.hpp"

namespace perfbench {

namespace h = h2priv;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kCorpusTraces = 32;
constexpr int kGenerateWorkers = 2;

h::corpus::ScoreOptions score_options() {
  h::corpus::ScoreOptions o;
  o.parallelism = h::core::Parallelism{1};
  o.classifier = h::corpus::Classifier::kKnn;
  o.train_mod = 2;
  return o;
}

struct Workspace {
  h::corpus::Corpus corpus;
  std::vector<std::string> paths;
  std::vector<double> setup_s;
};

/// Generates the corpus (2 workers) and warms up with one scoring pass and
/// one replay, repeated so setup_s is a median. Generation counts into a
/// discarded registry, so no live-stack counts leak into the timed window.
Workspace set_up(const Options& opt, const h::corpus::ScoreOptions& options) {
  Workspace ws;
  const std::string dir = opt.tmp_dir + "/corpus";
  for (int s = 0; s < kSetupRepeats; ++s) {
    const std::int64_t t0 = now_ns();
    fs::remove_all(dir);
    h::core::RunConfig cfg = h::core::scenario_config("table2");
    cfg.seed = opt.seed * 100'000;
    cfg.capture.corpus_dir = dir;
    cfg.capture.scenario = "table2";
    {
      h::obs::ScopedRegistry generation;
      (void)h::corpus::generate_sharded(cfg, kCorpusTraces, h::corpus::ShardOptions{},
                                        h::core::Parallelism{kGenerateWorkers});
    }
    ws.corpus = h::corpus::load_corpus(dir);
    ws.paths.clear();
    for (const auto& e : ws.corpus.manifest.entries) {
      ws.paths.push_back(h::corpus::trace_path(ws.corpus, e));
    }
    (void)h::corpus::score_corpus(ws.corpus, options);
    (void)h::capture::replay(h::capture::TraceFile::open(ws.paths.front()));
    ws.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return ws;
}

/// The report's scored fields: format_report minus total_file_bytes, which
/// tracks the encoder's output size rather than any verdict.
std::string scored_report(const h::corpus::ScoreReport& report) {
  std::istringstream in(h::corpus::format_report(report));
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("total_file_bytes ", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// What the sensitivity self-test injects: a second open + decode.
void decode_again(const std::string& path) {
  const h::capture::TraceFile trace = h::capture::TraceFile::open(path);
  (void)trace.ground_truth();
  (void)trace.records(h::net::Direction::kServerToClient);
  (void)trace.records(h::net::Direction::kClientToServer);
  (void)trace.summary();
}

std::uint64_t decoded_bytes(const h::capture::TraceFile& trace) {
  std::uint64_t n = 0;
  for (const h::capture::Section s :
       {h::capture::Section::kGroundTruth, h::capture::Section::kRecordsS2C,
        h::capture::Section::kRecordsC2S, h::capture::Section::kSummary}) {
    if (const h::capture::SectionInfo* info = trace.section(s)) n += info->raw_length;
  }
  return n;
}

double span_ns(const std::map<std::string, SpanTotal>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : static_cast<double>(it->second.ns);
}

void count_metrics(const h::obs::Registry& d, double traces, Metrics& m) {
  using C = h::obs::Counter;
  const auto n = [&](C c) { return static_cast<double>(d.get(c)); };
  m["codec.blocks_decoded_per_trace"] = {ratio(n(C::kCodecBlocksDecoded), traces), "count"};
  m["codec.cache_hit_ratio"] = {
      ratio(n(C::kCodecCacheHits), n(C::kCodecCacheHits) + n(C::kCodecCacheMisses)), "ratio"};
}

/// Redoes one score_corpus pass call by call under spans: phase A per trace,
/// then phase B. Returns how many traces' traced verdicts differ from
/// `report`'s, bit for bit.
std::uint64_t traced_score(SpanLog& log, std::uint64_t pass, const Workspace& ws,
                           const h::corpus::ScoreReport& report,
                           std::uint64_t& decoded) {
  const h::corpus::ScoreOptions options = score_options();
  const std::size_t n = ws.paths.size();
  std::uint64_t mismatches = 0;
  std::vector<h::analysis::SizeProfile> profiles(n);
  ScopedSpan score(log, "corpus.score_corpus", pass);
  for (std::size_t j = 0; j < n; ++j) {
    std::optional<h::capture::TraceFile> trace;
    {
      ScopedSpan s(log, "capture.open", j);
      trace.emplace(h::capture::TraceFile::open(ws.paths[j]));
    }
    h::analysis::GroundTruth truth;
    std::vector<h::analysis::RecordObservation> s2c, c2s;
    std::optional<h::capture::TraceSummary> stored;
    {
      ScopedSpan s(log, "capture.decode", j);
      truth = trace->ground_truth();
      s2c = trace->records(h::net::Direction::kServerToClient);
      c2s = trace->records(h::net::Direction::kClientToServer);
      if (trace->has_section(h::capture::Section::kSummary)) stored = trace->summary();
    }
    decoded += decoded_bytes(*trace);
    std::optional<h::core::ObjectPredictor> predictor;
    {
      ScopedSpan s(log, "analysis.predictor", j);
      predictor.emplace(s2c, h::core::isidewith_catalog());
    }
    std::int64_t gets = 0;
    {
      ScopedSpan s(log, "analysis.count_gets", j);
      gets = h::capture::count_gets(c2s);
    }
    h::capture::TraceSummary summary;
    {
      ScopedSpan s(log, "analysis.score", j);
      summary = h::capture::score_with_predictor(trace->meta(), truth, *predictor,
                                                 trace->packet_count(), gets);
    }
    {
      ScopedSpan s(log, "analysis.features", j);
      profiles[j] = h::analysis::build_feature_profile(
          options.features,
          predictor->bursts_after(h::util::TimePoint{trace->meta().attack_horizon_ns}), s2c);
    }
    const h::corpus::TraceScore& ts = report.traces[j];
    if (!(summary == ts.summary && profiles[j] == ts.profile && (!stored || *stored == summary))) {
      ++mismatches;
    }
  }
  // Phase B as score_corpus runs it: train on seed % train_mod == 0, k-NN
  // vote on the rest.
  ScopedSpan s(log, "analysis.classify", pass);
  h::analysis::Fingerprinter model;
  for (std::size_t j = 0; j < n; ++j) {
    const h::corpus::TraceScore& ts = report.traces[j];
    if (ts.seed % options.train_mod == 0) model.train(ts.true_label, profiles[j]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const h::corpus::TraceScore& ts = report.traces[j];
    if (ts.seed % options.train_mod == 0) continue;
    if (model.classify_knn_with_votes(profiles[j], options.knn_k).label != ts.predicted_label) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// One replay-verify pass under spans: open and replay each trace, then a
/// PacketCursor probe on a TraceFile of its own, so neither pass finds the
/// other's blocks in the block cache. Returns the traces whose replay
/// disagrees with `report`.
std::uint64_t traced_replay(SpanLog& log, std::uint64_t pass, const Workspace& ws,
                            const h::corpus::ScoreReport& report, std::uint64_t& packets) {
  std::uint64_t mismatches = 0;
  ScopedSpan replay_pass(log, "capture.replay_pass", pass);
  for (std::size_t j = 0; j < ws.paths.size(); ++j) {
    std::optional<h::capture::TraceFile> trace;
    {
      ScopedSpan s(log, "capture.replay_open", j);
      trace.emplace(h::capture::TraceFile::open(ws.paths[j]));
    }
    h::capture::ReplayResult r;
    {
      ScopedSpan s(log, "capture.replay", j);
      r = h::capture::replay(*trace);
    }
    if (!r.records_match || !r.summary_matches || !(r.summary == report.traces[j].summary)) {
      ++mismatches;
    }
    std::optional<h::capture::TraceFile> probe;
    {
      ScopedSpan s(log, "capture.probe_open", j);
      probe.emplace(h::capture::TraceFile::open(ws.paths[j]));
    }
    ScopedSpan s(log, "capture.packet_decode", j);
    h::capture::PacketCursor cursor = probe->packets();
    h::analysis::PacketObservation p;
    while (cursor.next(p)) ++packets;
  }
  return mismatches;
}

}  // namespace

Result run_offline_score(const Options& opt) {
  Result res;
  const h::corpus::ScoreOptions options = score_options();
  const Workspace ws = set_up(opt, options);
  const std::size_t n = ws.paths.size();

  Window w;
  std::string report_text;
  h::corpus::ScoreReport report;
  h::obs::Registry window_counts;
  {
    h::obs::ScopedRegistry scoped;
    const std::int64_t deadline = deadline_after(timed_seconds(opt));
    for (std::uint64_t pass = 0; w.ops == 0 || now_ns() < deadline; ++pass) {
      const std::int64_t t0 = now_ns();
      h::corpus::ScoreReport r = h::corpus::score_corpus(ws.corpus, options);
      if (opt.inject_decode) {
        for (const std::string& path : ws.paths) decode_again(path);
      }
      w.record(now_ns() - t0, n);
      if (pass == 0) {
        report_text = scored_report(r);
        report = std::move(r);
      } else if (scored_report(r) != report_text) {
        res.failed += n;
      }
    }
    window_counts = scoped.registry();
  }
  res.attempted = w.ops;
  res.oracle_digest = fnv1a(kFnvInit, report_text);

  // Replay-verify every trace once: a trace whose replay disagrees with its
  // stored records or with the scored summary fails its ops.
  const std::uint64_t passes = w.ops / n;
  for (std::size_t j = 0; j < n; ++j) {
    const h::capture::ReplayResult r = h::capture::replay(h::capture::TraceFile::open(ws.paths[j]));
    if (!r.records_match || !r.summary_matches || !(r.summary == report.traces[j].summary)) {
      res.failed += passes;
    }
  }

  // Traced passes: the call-by-call decomposition must reproduce
  // score_corpus's summaries, profiles and labels bit for bit. A --trace 0
  // run makes one scoring pass; a --trace 1 run alternates scoring and
  // replay passes.
  SpanLog log;
  std::uint64_t decoded = 0, packets = 0, traced = 0;
  const std::int64_t traced_deadline = deadline_after(timed_seconds(opt));
  do {
    if (traced_score(log, traced, ws, report, decoded) > 0) {
      res.failed += n;
      res.check_failures.emplace_back("offline_score: traced decomposition differs");
    }
    if (opt.trace && traced_replay(log, traced, ws, report, packets) > 0) {
      res.failed += n;
      res.check_failures.emplace_back("offline_score: traced replay differs");
    }
    ++traced;
  } while (opt.trace && now_ns() < traced_deadline);
  if (opt.trace) res.attempted += traced * n;

  std::vector<std::string> failures;
  const std::map<std::string, std::int64_t> self = self_by_name(log, failures);
  for (std::string& f : failures) res.check_failures.push_back(std::move(f));

  if (!opt.trace) {
    end_to_end_metrics(w, ws.setup_s, res.metrics);
    return res;
  }
  const std::map<std::string, SpanTotal> t = totals_by_name(log);
  const double traces = static_cast<double>(traced * n);
  const double scoring_ns = span_ns(t, "corpus.score_corpus");
  Metrics& m = res.metrics;
  count_metrics(window_counts, static_cast<double>(w.ops), m);
  m["capture.open_us_per_trace"] = {ratio(span_ns(t, "capture.open") / 1e3, traces), "us"};
  m["capture.decode_us_per_trace"] = {ratio(span_ns(t, "capture.decode") / 1e3, traces), "us"};
  m["capture.decode_mib_per_s"] = {ratio(static_cast<double>(decoded) / (1024.0 * 1024.0),
                                         span_ns(t, "capture.decode") / 1e9),
                                   "MiB/s"};
  m["capture.decode_share"] = {100.0 * ratio(span_ns(t, "capture.decode"), scoring_ns), "%"};
  m["analysis.score_us_per_trace"] = {
      ratio((span_ns(t, "analysis.predictor") + span_ns(t, "analysis.count_gets") +
             span_ns(t, "analysis.score")) / 1e3,
            traces),
      "us"};
  m["analysis.features_us_per_trace"] = {ratio(span_ns(t, "analysis.features") / 1e3, traces),
                                         "us"};
  m["analysis.classify_us_per_trace"] = {ratio(span_ns(t, "analysis.classify") / 1e3, traces),
                                         "us"};
  m["capture.replay_us_per_trace"] = {ratio(span_ns(t, "capture.replay") / 1e3, traces), "us"};
  m["capture.packet_decode_ns_per_packet"] = {
      ratio(span_ns(t, "capture.packet_decode"), static_cast<double>(packets)), "ns"};
  m["corpus.unattributed_share"] = {
      100.0 * ratio(static_cast<double>(self.at("corpus.score_corpus")), scoring_ns), "%"};
  m["trace.overhead_pct"] = {
      100.0 * (ratio(scoring_ns / traces, w.busy_s * 1e9 / static_cast<double>(w.ops)) - 1.0),
      "%"};
  for (const char* name : {"capture.open", "capture.decode", "analysis.predictor",
                           "analysis.count_gets", "analysis.score", "analysis.features",
                           "analysis.classify", "corpus.score_corpus"}) {
    res.notes.emplace_back(std::string("share.") + name,
                           100.0 * ratio(static_cast<double>(self.at(name)), scoring_ns));
  }
  res.notes.emplace_back("traced_passes", static_cast<double>(traced));
  if (!opt.spans_out.empty()) log.write_chrome_trace(opt.spans_out);
  return res;
}

}  // namespace perfbench
