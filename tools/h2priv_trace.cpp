// h2priv_trace — the trace-store workbench.
//
//   generate    run the simulator and capture .h2t traces (single, corpus,
//               or sharded corpus with --shard-capacity)
//   inspect     print a trace's metadata, section table and verdict
//   export-pcap synthesize a Wireshark-compatible pcap from a trace
//   replay      recompute the attack verdict offline; verify against stored
//   score       corpus-wide records-direct scoring pipeline + classifier
//   grid        attack x defense sweep: per-defense corpora, recovery vs cost
//   digest      print FNV-1a digests (trace files or a whole corpus)
//
// Corpus workflow:
//   h2priv_trace generate --corpus DIR --runs 20 --scenario table2 --seed 1000
//   h2priv_trace inspect DIR/run_1000.h2t
//   h2priv_trace replay --corpus DIR          # hard-fails on any mismatch
//   h2priv_trace score --corpus DIR --jobs 4 --classifier knn --out report.txt
//   h2priv_trace grid --root DIR --runs 20 --gate --out grid.txt
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/pcap_export.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/replay.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/corpus/score.hpp"
#include "h2priv/corpus/store.hpp"
#include "h2priv/defense/grid.hpp"
#include "h2priv/fleet/fleet.hpp"
#include "h2priv/fleet/sweep.hpp"
#include "h2priv/util/parse_number.hpp"

using namespace h2priv;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: h2priv_trace <command> [args]\n"
      "  generate (--out FILE | --corpus DIR --runs N) [--scenario NAME]\n"
      "           [--seed N] [--jobs N] [--shard-capacity N] [--defense NAME]\n"
      "           [--fleet N [--cache-mb M]]\n"
      "           scenarios: %s\n"
      "           defenses: none | pad-random | pad-bucket | quantize | shape\n"
      "                     | quantize+shape | full\n"
      "  inspect FILE.h2t [--packets-csv] [--records-csv]\n"
      "  export-pcap FILE.h2t OUT.pcap\n"
      "  replay (FILE.h2t | --corpus DIR)\n"
      "  score --corpus DIR [--jobs N] [--classifier none|nearest|knn|centroid]\n"
      "        [--features bursts,gaps,records] [--k N] [--train-mod N]\n"
      "        [--replay-verify] [--out FILE]\n"
      "  recompress --corpus DIR [--jobs N]\n"
      "  grid --root DIR [--runs N] [--seed N] [--jobs N] [--scenario NAME]\n"
      "       [--defenses a,b,c] [--train-mod N] [--out FILE] [--gate]\n"
      "  fleet-sweep --clients N [--cache-sizes a,b,c] [--seed N] [--jobs N]\n"
      "              [--scenario NAME] [--out FILE]\n"
      "  digest (FILE.h2t... | --corpus DIR)\n",
      core::scenario_names().c_str());
  return 2;
}

const char* verdict_str(bool b) { return b ? "yes" : "no"; }

void print_summary(const capture::TraceSummary& s, const char* heading) {
  std::printf("%s\n", heading);
  std::printf("  monitor: %llu packets, %lld GETs\n",
              static_cast<unsigned long long>(s.monitor_packets),
              static_cast<long long>(s.monitor_gets));
  std::printf("  html: identified=%s serialized=%s success=%s dom=%s\n",
              verdict_str(s.html.identified), verdict_str(s.html.serialized_primary),
              verdict_str(s.html.attack_success),
              s.html.has_dom ? std::to_string(s.html.primary_dom).c_str() : "-");
  int successes = 0;
  for (const capture::ObjectVerdict& v : s.emblems_by_position) {
    successes += v.attack_success ? 1 : 0;
  }
  std::printf("  emblems: %d/8 attack successes, %lld/8 sequence positions\n",
              successes, static_cast<long long>(s.sequence_positions_correct));
  std::printf("  predicted sequence:");
  for (const std::string& label : s.predicted_sequence) {
    std::printf(" %s", label.c_str());
  }
  std::printf("\n");
}

/// Where one `--flag value` argument lands, parsed as the target's type:
/// text as is, numbers through util::parse_number.
using FlagTarget = std::variant<std::string*, int*, std::uint64_t*>;

/// The one flag reader: walks `args` in order, storing each `--flag value`
/// pair into its target and setting each bare switch; a repeated flag keeps
/// its last value. Any other argument, or a flag without its value, prints
/// "<cmd>: bad argument X" and returns false; so does a numeric flag whose
/// value parse_number rejects ("<cmd>: bad argument --flag VALUE").
bool read_flags(const char* cmd, const std::vector<std::string>& args,
                std::initializer_list<std::pair<std::string_view, FlagTarget>> flags,
                std::initializer_list<std::pair<std::string_view, bool*>> switches = {}) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto named = [&a](const auto& entry) { return entry.first == a; };
    if (const auto* sw = std::find_if(switches.begin(), switches.end(), named);
        sw != switches.end()) {
      *sw->second = true;
      continue;
    }
    const auto* flag = std::find_if(flags.begin(), flags.end(), named);
    if (flag == flags.end() || i + 1 == args.size()) {
      std::fprintf(stderr, "%s: bad argument %s\n", cmd, a.c_str());
      return false;
    }
    const std::string& value = args[++i];
    const bool parsed = std::visit(
        [&value](auto* target) {
          if constexpr (std::is_same_v<decltype(target), std::string*>) {
            *target = value;
            return true;
          } else {
            return util::parse_number(value, *target);
          }
        },
        flag->second);
    if (!parsed) {
      std::fprintf(stderr, "%s: bad argument %s %s\n", cmd, a.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

/// The items of a comma-separated list, in order, empty items dropped.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Writes a report to `out`, or to stdout when `out` is empty. Returns false
/// after "<cmd>: cannot write <out>" when the file cannot be written.
bool write_report(const char* cmd, const std::string& text, const std::string& out) {
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream os(out, std::ios::binary | std::ios::trunc);
  os << text;
  os.flush();
  if (!os) std::fprintf(stderr, "%s: cannot write %s\n", cmd, out.c_str());
  return static_cast<bool>(os);
}

struct CorpusWalk {
  std::size_t traces = 0;
  int failures = 0;
};

/// The one manifest walk: calls `visit(entry, path, digest)` for every entry
/// of <dir>/manifest.txt with its trace path and the file's FNV-1a digest,
/// and sums the failures `visit` returns.
CorpusWalk walk_corpus(
    const std::string& dir,
    const std::function<int(const capture::ManifestEntry&, const std::string& path,
                            std::uint64_t digest)>& visit) {
  const capture::Manifest manifest = capture::read_manifest(dir + "/manifest.txt");
  CorpusWalk walk{manifest.entries.size(), 0};
  for (const capture::ManifestEntry& e : manifest.entries) {
    const std::string path = dir + "/" + e.file;
    walk.failures += visit(e, path, capture::digest_file(path));
  }
  return walk;
}

int cmd_generate(const std::vector<std::string>& args) {
  std::string out, corpus, scenario, defense_arg;
  std::uint64_t seed = 1000, cache_mb = 0;
  int runs = 1, jobs = 0, shard_capacity = 0, fleet_clients = 0;
  if (!read_flags("generate", args,
                  {{"--out", &out}, {"--corpus", &corpus}, {"--scenario", &scenario},
                   {"--defense", &defense_arg}, {"--seed", &seed}, {"--runs", &runs},
                   {"--jobs", &jobs}, {"--shard-capacity", &shard_capacity},
                   {"--fleet", &fleet_clients}, {"--cache-mb", &cache_mb}})) {
    return 2;
  }
  if (out.empty() == corpus.empty()) {
    std::fprintf(stderr, "generate: exactly one of --out / --corpus required\n");
    return 2;
  }
  core::RunConfig cfg = core::scenario_config(scenario);
  cfg.seed = seed;
  cfg.capture.scenario = scenario.empty() ? "baseline" : scenario;
  if (!defense_arg.empty()) {
    const std::optional<defense::DefenseConfig> parsed =
        defense::defense_from_name(defense_arg);
    if (!parsed) {
      std::fprintf(stderr, "generate: unknown defense %s\n", defense_arg.c_str());
      return 2;
    }
    cfg.server.defense = *parsed;
    if (parsed->enabled()) cfg.capture.scenario += "+" + defense_arg;
  }
  if (fleet_clients > 0) {
    if (shard_capacity > 0) {
      std::fprintf(stderr, "generate: --shard-capacity not supported with --fleet\n");
      return 2;
    }
    cfg.fleet.clients = fleet_clients;
    cfg.fleet.cache_mb = static_cast<std::size_t>(cache_mb);
    if (!out.empty()) {
      cfg.capture.path = out;
      const fleet::FleetResult r = fleet::run_fleet(cfg, core::Parallelism{jobs});
      std::uint64_t packets = 0;
      for (const fleet::FleetClientResult& c : r.clients) packets += c.obs.packets.size();
      std::printf("wrote %s (%d clients, %llu packets, cache hit rate %.2f%%)\n",
                  out.c_str(), fleet_clients, static_cast<unsigned long long>(packets),
                  r.cache_hit_rate() * 100.0);
      return 0;
    }
    cfg.capture.corpus_dir = corpus;
    const std::vector<fleet::FleetResult> results =
        fleet::run_fleet_corpus(cfg, runs, core::Parallelism{jobs});
    std::printf("wrote %zu fleet traces (%d clients each) + manifest.txt to %s\n",
                results.size(), fleet_clients, corpus.c_str());
    return 0;
  }
  if (cache_mb > 0) {
    std::fprintf(stderr, "generate: --cache-mb requires --fleet\n");
    return 2;
  }
  if (!out.empty()) {
    cfg.capture.path = out;
    const core::RunResult r = capture::record_run(cfg);
    std::printf("wrote %s (%llu packets, %d GETs)\n", out.c_str(),
                static_cast<unsigned long long>(r.monitor_packets), r.monitor_gets);
    return 0;
  }
  cfg.capture.corpus_dir = corpus;
  if (shard_capacity > 0) {
    const capture::Manifest merged =
        corpus::generate_sharded(cfg, runs, corpus::ShardOptions{shard_capacity},
                                 core::Parallelism{jobs});
    std::printf("wrote %zu traces across %d shards + merged manifest.txt to %s\n",
                merged.entries.size(),
                (runs + shard_capacity - 1) / shard_capacity, corpus.c_str());
    return 0;
  }
  const capture::RecordedCorpus recorded =
      capture::record_corpus(cfg, runs, core::Parallelism{jobs});
  std::printf("wrote %zu traces + manifest.txt to %s\n", recorded.results.size(),
              corpus.c_str());
  return 0;
}

int cmd_score(const std::vector<std::string>& args) {
  std::string dir, out, classifier, features;
  corpus::ScoreOptions options;
  int knn_k = static_cast<int>(options.knn_k);
  if (!read_flags("score", args,
                  {{"--corpus", &dir}, {"--jobs", &options.parallelism.jobs},
                   {"--classifier", &classifier}, {"--features", &features},
                   {"--k", &knn_k}, {"--train-mod", &options.train_mod}, {"--out", &out}},
                  {{"--replay-verify", &options.replay_verify}})) {
    return 2;
  }
  if (knn_k < 1) {
    std::fprintf(stderr, "score: bad argument --k %d\n", knn_k);
    return 2;
  }
  options.knn_k = static_cast<std::size_t>(knn_k);
  if (!classifier.empty()) {
    const auto parsed = corpus::classifier_from_name(classifier);
    if (!parsed) {
      std::fprintf(stderr, "score: unknown classifier %s\n", classifier.c_str());
      return 2;
    }
    options.classifier = *parsed;
  }
  if (!features.empty()) {
    const auto parsed = corpus::features_from_names(features);
    if (!parsed) {
      std::fprintf(stderr, "score: bad feature list %s\n", features.c_str());
      return 2;
    }
    options.features = *parsed;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "score: --corpus DIR required\n");
    return 2;
  }
  const corpus::ScoreReport report =
      corpus::score_corpus(corpus::load_corpus(dir), options);
  if (!write_report("score", corpus::format_report(report), out)) return 1;
  if (!out.empty()) {
    std::printf("wrote %s (%zu traces, %zu curve points)\n", out.c_str(),
                report.traces.size(), report.curve.size());
  }
  // Scoring hard-fails when any trace's recomputed verdict diverges from the
  // stored one (or replay verification fails) — the CI gate's contract.
  return report.summary_mismatches == 0 && report.replay_failures == 0 ? 0 : 1;
}

int cmd_grid(const std::vector<std::string>& args) {
  defense::GridOptions options;
  std::string out, defenses;
  bool gate = false;
  if (!read_flags("grid", args,
                  {{"--root", &options.root}, {"--runs", &options.runs},
                   {"--seed", &options.base_seed}, {"--jobs", &options.parallelism.jobs},
                   {"--scenario", &options.scenario}, {"--defenses", &defenses},
                   {"--train-mod", &options.train_mod}, {"--out", &out}},
                  {{"--gate", &gate}})) {
    return 2;
  }
  options.defenses = split_list(defenses);  // preset names, in row order
  if (options.root.empty()) {
    std::fprintf(stderr, "grid: --root DIR required\n");
    return 2;
  }
  const defense::GridReport report = defense::run_grid(options);
  if (!write_report("grid", defense::format_grid_report(report), out)) return 1;
  if (!out.empty()) {
    std::printf("wrote %s (%zu defenses x %zu attacks)\n", out.c_str(),
                report.rows.size(), report.attacks.size());
  }
  if (gate) {
    const std::vector<std::string> violations = defense::check_grid_invariants(report);
    for (const std::string& v : violations) {
      std::fprintf(stderr, "grid gate: %s\n", v.c_str());
    }
    if (!violations.empty()) return 1;
    std::printf("grid gate: ok (%zu rows, %zu attacks)\n", report.rows.size(),
                report.attacks.size());
  }
  return 0;
}

int cmd_inspect(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  bool packets_csv = false, records_csv = false;
  std::string path;
  for (const std::string& a : args) {
    if (a == "--packets-csv") {
      packets_csv = true;
    } else if (a == "--records-csv") {
      records_csv = true;
    } else {
      path = a;
    }
  }
  const capture::TraceFile trace = capture::TraceFile::open(path);
  if (packets_csv) {
    std::printf("time_ns,dir,wire_size,seq,ack,flags,payload_len\n");
    analysis::PacketObservation p;
    for (capture::PacketCursor cursor = trace.packets(); cursor.next(p);) {
      std::printf("%lld,%s,%lld,%llu,%llu,%u,%zu\n", static_cast<long long>(p.time.ns),
                  p.dir == net::Direction::kClientToServer ? "c2s" : "s2c",
                  static_cast<long long>(p.wire_size),
                  static_cast<unsigned long long>(p.seq),
                  static_cast<unsigned long long>(p.ack), p.flags, p.payload_len);
    }
    return 0;
  }
  if (records_csv) {
    std::printf("time_ns,dir,type,ciphertext_len,stream_offset\n");
    for (const auto dir :
         {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
      for (const analysis::RecordObservation& r : trace.records(dir)) {
        std::printf("%lld,%s,%u,%zu,%llu\n", static_cast<long long>(r.time.ns),
                    dir == net::Direction::kClientToServer ? "c2s" : "s2c",
                    static_cast<unsigned>(r.type), r.ciphertext_len,
                    static_cast<unsigned long long>(r.stream_offset));
      }
    }
    return 0;
  }

  const capture::TraceMeta& meta = trace.meta();
  std::printf("%s: %llu bytes, digest %016llx\n", path.c_str(),
              static_cast<unsigned long long>(trace.file_size()),
              static_cast<unsigned long long>(trace.digest()));
  std::printf("meta: seed=%llu scenario=%s site=%s attack=%s pad=%s push=%s\n",
              static_cast<unsigned long long>(meta.seed), meta.scenario.c_str(),
              meta.site.c_str(), verdict_str(meta.attack_enabled),
              verdict_str(meta.pad_sensitive_objects), verdict_str(meta.push_emblems));
  std::printf("meta: deadline=%.3fs horizon=%.6fs party_order=",
              static_cast<double>(meta.deadline_ns) / 1e9,
              static_cast<double>(meta.attack_horizon_ns) / 1e9);
  for (const int p : meta.party_order) std::printf("%d ", p + 1);
  std::printf("\n");
  if (meta.defense.enabled()) {
    std::printf("meta: defense=%s padding=%s pad-bucket=%zu record-bucket=%zu "
                "shape=%lldns/%lldbps randomize-priority=%s\n",
                defense::defense_name(meta.defense).c_str(),
                defense::to_string(meta.defense.padding), meta.defense.pad_bucket,
                meta.defense.record_bucket,
                static_cast<long long>(meta.defense.shape_interval.ns),
                static_cast<long long>(meta.defense.shape_rate.bits_per_sec),
                verdict_str(meta.defense.randomize_priority));
  }
  std::printf("sections:\n");
  std::uint64_t total_stored = 0, total_raw = 0;
  for (const capture::SectionInfo& s : trace.sections()) {
    const char* name = "?";
    switch (s.id) {
      case capture::Section::kMeta: name = "meta"; break;
      case capture::Section::kPackets: name = "packets"; break;
      case capture::Section::kRecordsC2S: name = "records_c2s"; break;
      case capture::Section::kRecordsS2C: name = "records_s2c"; break;
      case capture::Section::kGroundTruth: name = "ground_truth"; break;
      case capture::Section::kSummary: name = "summary"; break;
      case capture::Section::kBlockIndex: name = "block_index"; break;
      case capture::Section::kFleet: name = "fleet"; break;
      case capture::Section::kConnIds: name = "conn_ids"; break;
    }
    total_stored += s.length;
    total_raw += s.raw_length;
    if (s.compressed) {
      std::printf(
          "  %-12s offset=%-8llu stored=%-8llu raw=%-8llu ratio=%.2fx count=%llu\n",
          name, static_cast<unsigned long long>(s.offset),
          static_cast<unsigned long long>(s.length),
          static_cast<unsigned long long>(s.raw_length),
          s.length > 0 ? static_cast<double>(s.raw_length) / static_cast<double>(s.length)
                       : 0.0,
          static_cast<unsigned long long>(s.count));
    } else {
      std::printf("  %-12s offset=%-8llu length=%-8llu count=%llu\n", name,
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.length),
                  static_cast<unsigned long long>(s.count));
    }
  }
  if (total_raw > total_stored) {
    std::printf("compression: stored=%llu raw=%llu ratio=%.2fx\n",
                static_cast<unsigned long long>(total_stored),
                static_cast<unsigned long long>(total_raw),
                total_stored > 0
                    ? static_cast<double>(total_raw) / static_cast<double>(total_stored)
                    : 0.0);
  }
  if (trace.has_section(capture::Section::kSummary)) {
    print_summary(trace.summary(), "stored verdict:");
  }
  if (meta.fleet) {
    const std::vector<capture::FleetConn> conns = trace.fleet();
    std::printf("fleet: %zu connections\n", conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const capture::FleetConn& c = conns[i];
      std::printf("  conn %zu seed=%llu start=%.3fs hops=%.1f/%.1fms rate=%lldMbps "
                  "cache=%llu/%llu/%llu (hit/miss/stale)\n",
                  i, static_cast<unsigned long long>(c.client_seed),
                  static_cast<double>(c.start_offset_ns) / 1e9,
                  static_cast<double>(c.client_hop_delay_ns) / 1e6,
                  static_cast<double>(c.server_hop_delay_ns) / 1e6,
                  static_cast<long long>(c.link_rate_bps / 1'000'000),
                  static_cast<unsigned long long>(c.cache_hits),
                  static_cast<unsigned long long>(c.cache_misses),
                  static_cast<unsigned long long>(c.cache_stale));
    }
  }
  return 0;
}

int cmd_export_pcap(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const capture::TraceFile trace = capture::TraceFile::open(args[0]);
  const std::uint64_t packets = capture::export_pcap(trace.packets(), args[1]);
  std::printf("wrote %s (%llu packets)\n", args[1].c_str(),
              static_cast<unsigned long long>(packets));
  return 0;
}

int replay_fleet_one(const capture::TraceFile& trace, const std::string& path,
                     bool print) {
  const std::vector<capture::ReplayResult> results = capture::replay_fleet(trace);
  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const capture::ReplayResult& r = results[i];
    if (print) print_summary(r.summary, ("conn " + std::to_string(i) + ":").c_str());
    if (!r.records_match || !r.summary_matches) {
      std::fprintf(stderr, "%s: FAIL — conn %zu %s\n", path.c_str(), i,
                   r.records_match ? "verdict differs from stored"
                                   : "replayed records differ from stored");
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("%s: fleet replay ok (%zu connections bit-identical)\n", path.c_str(),
                results.size());
  }
  return failures == 0 ? 0 : 1;
}

int replay_one(const std::string& path, bool print) {
  const capture::TraceFile trace = capture::TraceFile::open(path);
  if (trace.meta().fleet) return replay_fleet_one(trace, path, print);
  const capture::ReplayResult r = capture::replay(trace);
  if (print) print_summary(r.summary, "replayed verdict:");
  if (!r.records_match) {
    std::fprintf(stderr, "%s: FAIL — replayed records differ from stored\n",
                 path.c_str());
    return 1;
  }
  if (trace.has_section(capture::Section::kSummary) && !r.summary_matches) {
    std::fprintf(stderr, "%s: FAIL — replayed verdict differs from stored\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: replay ok (records + verdict bit-identical)\n", path.c_str());
  return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
  if (args.size() == 2 && args[0] == "--corpus") {
    const CorpusWalk walk = walk_corpus(
        args[1], [](const capture::ManifestEntry& e, const std::string& path,
                    std::uint64_t digest) {
          if (digest != e.digest) {
            std::fprintf(stderr, "%s: FAIL — digest mismatch vs manifest\n",
                         path.c_str());
            return 1;
          }
          return replay_one(path, /*print=*/false);
        });
    std::printf("corpus replay: %zu traces, %d failures\n", walk.traces, walk.failures);
    return walk.failures == 0 ? 0 : 1;
  }
  if (args.size() != 1) return usage();
  return replay_one(args[0], /*print=*/true);
}

int cmd_recompress(const std::vector<std::string>& args) {
  std::string dir;
  int jobs = 0;
  if (!read_flags("recompress", args, {{"--corpus", &dir}, {"--jobs", &jobs}})) return 2;
  if (dir.empty()) {
    std::fprintf(stderr, "recompress: --corpus DIR required\n");
    return 2;
  }
  const corpus::RecompressStats stats =
      corpus::recompress_corpus(dir, core::Parallelism{jobs});
  std::printf("recompressed %s: %llu traces, %llu upgraded, %llu -> %llu bytes",
              dir.c_str(), static_cast<unsigned long long>(stats.traces),
              static_cast<unsigned long long>(stats.upgraded),
              static_cast<unsigned long long>(stats.bytes_before),
              static_cast<unsigned long long>(stats.bytes_after));
  if (stats.bytes_after > 0 && stats.bytes_before >= stats.bytes_after) {
    std::printf(" (%.2fx)", static_cast<double>(stats.bytes_before) /
                                static_cast<double>(stats.bytes_after));
  }
  std::printf("\n");
  return 0;
}

int cmd_fleet_sweep(const std::vector<std::string>& args) {
  std::string out, cache_sizes;
  std::string scenario = "table2";  // attack on: verdicts per cache size
  std::uint64_t seed = 1000;
  int clients = 0;
  core::Parallelism parallelism{};
  if (!read_flags("fleet-sweep", args,
                  {{"--clients", &clients}, {"--cache-sizes", &cache_sizes},
                   {"--seed", &seed}, {"--jobs", &parallelism.jobs},
                   {"--scenario", &scenario}, {"--out", &out}})) {
    return 2;
  }
  if (clients <= 0) {
    std::fprintf(stderr, "fleet-sweep: --clients N required\n");
    return 2;
  }
  fleet::SweepOptions options;
  options.config = core::scenario_config(scenario);
  options.config.seed = seed;
  options.config.capture.scenario = scenario;
  options.config.fleet.clients = clients;
  options.parallelism = parallelism;
  std::vector<std::size_t> sizes_mb;
  for (const std::string& mb : split_list(cache_sizes)) {
    if (!util::parse_number(mb, sizes_mb.emplace_back())) {
      std::fprintf(stderr, "fleet-sweep: bad argument --cache-sizes %s\n",
                   cache_sizes.c_str());
      return 2;
    }
  }
  if (!sizes_mb.empty()) options.cache_sizes_mb = std::move(sizes_mb);
  const fleet::SweepResult result = fleet::run_sweep(options);
  if (!write_report("fleet-sweep", fleet::format_report(result), out)) return 1;
  if (!out.empty()) {
    std::printf("wrote %s (%zu cache sizes x %d clients)\n", out.c_str(),
                result.points.size(), result.fleet_clients);
  }
  return 0;
}

int cmd_digest(const std::vector<std::string>& args) {
  if (args.size() == 2 && args[0] == "--corpus") {
    const CorpusWalk walk = walk_corpus(
        args[1], [](const capture::ManifestEntry& e, const std::string&,
                    std::uint64_t digest) {
          const bool ok = digest == e.digest;
          std::printf("%016llx %s%s\n", static_cast<unsigned long long>(digest),
                      e.file.c_str(), ok ? "" : "  MISMATCH");
          return ok ? 0 : 1;
        });
    return walk.failures == 0 ? 0 : 1;
  }
  if (args.empty()) return usage();
  for (const std::string& path : args) {
    std::printf("%016llx %s\n",
                static_cast<unsigned long long>(capture::digest_file(path)),
                path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "export-pcap") return cmd_export_pcap(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "score") return cmd_score(args);
    if (cmd == "recompress") return cmd_recompress(args);
    if (cmd == "grid") return cmd_grid(args);
    if (cmd == "fleet-sweep") return cmd_fleet_sweep(args);
    if (cmd == "digest") return cmd_digest(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "h2priv_trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
