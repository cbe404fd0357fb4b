// Recording: a run's observations written as a .h2t trace.
//
// core::run_once simulates and scores; it writes no file. record_run runs it
// over a core::RunObservations and writes the trace afterwards from those
// observations, the way the paper's adversary captures with tshark and
// analyses the capture later: the trace is a product of the page load, not
// part of the stack. record_corpus does the same for a batch of seeds and
// adds the corpus manifest. replay.hpp is the way back.
#pragma once

#include <string>
#include <vector>

#include "h2priv/capture/corpus.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"

namespace h2priv::capture {

/// The .h2t metadata a run of `config` records: seed, scenario label, the
/// adversary and defense settings and the deadline. The writer fills in the
/// rest (record_run the party order and horizon, the fleet merger its
/// per-client entries).
[[nodiscard]] TraceMeta capture_meta(const core::RunConfig& config);

/// Where `config.capture` puts this seed's trace: capture.path, or
/// <corpus_dir>/run_<seed>.h2t, creating corpus_dir if need be (concurrent
/// workers may race on that; creating a directory is idempotent).
[[nodiscard]] std::string capture_path(const core::RunConfig& config);

/// A run's scored verdict in the shape a .h2t trace stores it — the one
/// RunResult -> TraceSummary conversion, shared by record_run, offline
/// scoring (score_with_predictor) and the fleet trace merger.
[[nodiscard]] TraceSummary summary_of(const core::RunResult& result);

/// Runs core::run_once(config) with capture off and writes the trace
/// `config.capture` names from the run's observations: packets in arrival
/// order, then the client->server and server->client records, the ground
/// truth and the scored verdict. The observations land in
/// config.observations_out when it is set (the caller keeps them), otherwise
/// in a local RunObservations. Throws std::invalid_argument when
/// config.capture names no trace, TraceError on I/O failure.
core::RunResult record_run(const core::RunConfig& config);

struct RecordedCorpus {
  std::vector<core::RunResult> results;  ///< one per seed, in seed order
  Manifest manifest;                     ///< what manifest.txt holds
};

/// record_run for seeds {config.seed .. config.seed+n-1} into
/// config.capture.corpus_dir across `parallelism` workers, then
/// <corpus_dir>/manifest.txt with one manifest_entry() per trace (creating
/// corpus_dir, so n = 0 writes an empty corpus). Entries
/// are in seed order and every field comes from the trace files, so the
/// corpus is byte-identical for any job count. Throws std::invalid_argument
/// when corpus_dir is empty.
RecordedCorpus record_corpus(const core::RunConfig& config, int n,
                             core::Parallelism parallelism);

}  // namespace h2priv::capture
