// .h2t v2 block-codec throughput: the adaptive range coder (order-1 model,
// 64 KiB blocks) measured on the real column streams of freshly captured
// traces, plus the end-to-end v2 read path (TraceFile::open, then every
// section decoded through the TraceFile's decoded-block table).
//
// Phase 1 captures a corpus. Phase 2 pulls every compressed section's raw
// column bytes back out by decoding its blocks directly with rc_decompress —
// the same material the writer fed the coder. Phase 3 times rc_compress over
// those blocks, phase 4 times rc_decompress, and both hard-fail unless the
// round trip is byte-exact and a second encode pass is byte-identical to
// the first (codec determinism). Phase 5 times a full read of every trace —
// open, drain the packet cursor, decode every other section — the number a
// cold corpus scan actually sees.
//
//   $ ./bench_codec [runs] [--jobs N]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "h2priv/core/scenario.hpp"
#include "h2priv/capture/record.hpp"
#include "h2priv/capture/trace_codec.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/corpus/store.hpp"
#include "h2priv/util/range_coder.hpp"

using namespace h2priv;

namespace {

/// One coded block of one stream: enough to re-run either codec direction.
struct BlockSample {
  util::Bytes raw;
  util::Bytes comp;    ///< rc output (even for blocks the writer stored raw)
  bool stored = false; ///< writer kept it raw on disk (coder did not shrink it)
};

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::runs_from_argv(argc, argv, 8);
  bench::print_header("bench_codec", "capture subsystem",
                      ".h2t v2 range-coder and end-to-end decode throughput",
                      runs);

  // Phase 1: capture `runs` live traces (attack on — densest sections).
  const std::string root =
      (std::filesystem::temp_directory_path() / "bench_codec").string();
  std::filesystem::remove_all(root);
  core::RunConfig cfg = core::scenario_config("table2");
  cfg.seed = 1'000;
  cfg.capture.corpus_dir = root;
  cfg.capture.scenario = "table2";
  (void)capture::record_corpus(cfg, runs, bench::Harness::instance().jobs);
  const corpus::Corpus corpus = corpus::load_corpus(root);

  // Phase 2: recover every compressed section's raw column blocks by
  // decoding them straight off the mapped images.
  std::vector<BlockSample> samples;
  std::uint64_t raw_bytes = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t pkt_raw[8] = {};   // per-stream totals, packets section
  std::uint64_t pkt_disk[8] = {};
  util::RcModel model;
  for (const capture::ManifestEntry& e : corpus.manifest.entries) {
    const capture::TraceFile trace =
        capture::TraceFile::open(trace_path(corpus, e));
    for (const capture::SectionInfo& s : trace.sections()) {
      const capture::SectionBlocks* blocks = trace.section_blocks(s.id);
      if (blocks == nullptr) continue;
      const util::BytesView payload = trace.section_bytes(s.id);
      for (const capture::BlockInfo& b : blocks->blocks) {
        if (s.id == capture::Section::kPackets && b.stream < 8) {
          pkt_raw[b.stream] += b.raw_length;
          pkt_disk[b.stream] += b.comp_length;
        }
        BlockSample sample;
        sample.stored = b.stored;
        sample.raw.resize(static_cast<std::size_t>(b.raw_length));
        const util::BytesView coded =
            payload.subspan(static_cast<std::size_t>(b.disk_offset),
                            static_cast<std::size_t>(b.comp_length));
        if (b.stored) {
          sample.raw.assign(coded.begin(), coded.end());
        } else {
          model.reset();
          (void)util::rc_decompress(coded, model,
                                    std::span<std::uint8_t>(sample.raw));
        }
        raw_bytes += sample.raw.size();
        disk_bytes += b.comp_length;
        samples.push_back(std::move(sample));
      }
    }
  }
  std::printf("corpus: %zu traces, %zu blocks, %.1f KiB raw columns, "
              "%.1f KiB on disk (%.2fx)\n",
              corpus.manifest.entries.size(), samples.size(),
              static_cast<double>(raw_bytes) / 1024.0,
              static_cast<double>(disk_bytes) / 1024.0,
              disk_bytes > 0 ? static_cast<double>(raw_bytes) /
                                   static_cast<double>(disk_bytes)
                             : 0.0);
  static const char* kPktStreams[6] = {"tag",  "dtime", "dwire",
                                       "dseq", "dack",  "dlen"};
  std::printf("packet columns:");
  for (int s = 0; s < 6; ++s) {
    std::printf(" %s=%.2fx", kPktStreams[s],
                pkt_disk[s] > 0 ? static_cast<double>(pkt_raw[s]) /
                                      static_cast<double>(pkt_disk[s])
                                : 0.0);
  }
  std::printf("\n");

  // Phase 3: coder-only encode throughput, single-core, over every block the
  // writer codes: TraceWriter::finish range-codes each block, then stores
  // raw the ones the coder did not shrink. Two passes must agree byte for
  // byte (adaptive coding is a pure function of the block).
  const int enc_reps = 20;
  bool deterministic = true;
  util::ByteWriter scratch;
  const double e0 = bench::now_s();
  for (int rep = 0; rep < enc_reps; ++rep) {
    for (BlockSample& s : samples) {
      scratch.clear();
      model.reset();
      (void)util::rc_compress(util::BytesView{s.raw.data(), s.raw.size()},
                              model, scratch);
      if (rep == 0) {
        s.comp.assign(scratch.view().begin(), scratch.view().end());
      } else if (rep == 1) {
        deterministic &= std::equal(scratch.view().begin(), scratch.view().end(),
                                    s.comp.begin(), s.comp.end());
      }
    }
  }
  const double enc_wall = bench::now_s() - e0;
  const double enc_mib_s =
      enc_wall > 0 ? static_cast<double>(raw_bytes) * enc_reps /
                         (1024.0 * 1024.0) / enc_wall
                   : 0.0;

  // Phase 4: decode bandwidth, single-core, mirroring the read path — a
  // stored block is a copy, a coded block runs the range decoder. Reported
  // both ways: coder-only (coded blocks / coder time) and effective (all
  // raw bytes / total time). Hard-fails unless every round trip is exact.
  std::uint64_t coded_raw_bytes = 0;
  for (const BlockSample& s : samples) {
    if (!s.stored) coded_raw_bytes += s.raw.size();
  }
  const int dec_reps = 20;
  bool roundtrip_ok = true;
  util::Bytes decoded;
  double rc_wall = 0;
  const double d0 = bench::now_s();
  for (int rep = 0; rep < dec_reps; ++rep) {
    for (const BlockSample& s : samples) {
      decoded.resize(s.raw.size());
      if (s.stored) {
        std::copy(s.raw.begin(), s.raw.end(), decoded.begin());
      } else {
        const double r0 = bench::now_s();
        model.reset();
        (void)util::rc_decompress(util::BytesView{s.comp.data(), s.comp.size()},
                                  model, std::span<std::uint8_t>(decoded));
        rc_wall += bench::now_s() - r0;
      }
      if (rep == 0) roundtrip_ok &= decoded == s.raw;
    }
  }
  const double dec_wall = bench::now_s() - d0;
  const double dec_mib_s =
      rc_wall > 0 ? static_cast<double>(coded_raw_bytes) * dec_reps /
                        (1024.0 * 1024.0) / rc_wall
                  : 0.0;
  const double effective_mib_s =
      dec_wall > 0 ? static_cast<double>(raw_bytes) * dec_reps /
                         (1024.0 * 1024.0) / dec_wall
                   : 0.0;

  // Phase 5: end-to-end cold read — open each trace and decode every
  // section: packets, both record sections, ground truth, summary.
  const int open_reps = 5;
  std::uint64_t decoded_packets = 0;
  const double o0 = bench::now_s();
  for (int rep = 0; rep < open_reps; ++rep) {
    for (const capture::ManifestEntry& e : corpus.manifest.entries) {
      const capture::TraceFile trace = capture::TraceFile::open(trace_path(corpus, e));
      analysis::PacketObservation p;
      for (capture::PacketCursor cursor = trace.packets(); cursor.next(p);) {
        ++decoded_packets;
      }
      (void)trace.records(net::Direction::kClientToServer);
      (void)trace.records(net::Direction::kServerToClient);
      (void)trace.ground_truth();
      (void)trace.summary();
    }
  }
  const double open_wall = bench::now_s() - o0;
  const double open_traces_s =
      open_wall > 0 ? static_cast<double>(corpus.manifest.entries.size()) *
                          open_reps / open_wall
                    : 0.0;
  const double open_mib_s =
      open_wall > 0 ? static_cast<double>(raw_bytes) * open_reps /
                          (1024.0 * 1024.0) / open_wall
                    : 0.0;

  std::printf("encode: %.1f MiB/s raw-in (coder only, 1 core, %d reps)\n",
              enc_mib_s, enc_reps);
  std::printf("decode: %.1f MiB/s coder-only, %.1f MiB/s effective "
              "(1 core, %d reps)\n",
              dec_mib_s, effective_mib_s, dec_reps);
  std::printf("open:   %.1f traces/s, %.1f MiB/s raw columns (%llu packets)\n",
              open_traces_s, open_mib_s,
              static_cast<unsigned long long>(decoded_packets));
  std::printf("round trip %s, re-encode %s\n",
              roundtrip_ok ? "byte-exact" : "BROKEN",
              deterministic ? "byte-identical" : "NON-DETERMINISTIC");

  bench::emit_bench_json(
      "codec",
      {{"encode_mib_s", enc_mib_s},
       {"decode_mib_s", dec_mib_s},
       {"decode_effective_mib_s", effective_mib_s},
       {"open_traces_per_s", open_traces_s},
       {"open_mib_s", open_mib_s},
       {"column_ratio", disk_bytes > 0 ? static_cast<double>(raw_bytes) /
                                             static_cast<double>(disk_bytes)
                                       : 0.0},
       {"roundtrip_ok", roundtrip_ok ? 1.0 : 0.0},
       {"encode_deterministic", deterministic ? 1.0 : 0.0}});
  std::filesystem::remove_all(root);
  return roundtrip_ok && deterministic ? 0 : 1;
}
