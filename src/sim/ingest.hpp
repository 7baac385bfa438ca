// Hardened, gracefully-degrading trace ingest (DESIGN.md §9).
//
// Real production telemetry is dirty: SBE counters reset on reboot and
// wrap on rollback, out-of-band sensors drop minutes and emit NaN or
// physically impossible spikes, scheduler logs duplicate and reorder
// records. The simulator never produces any of that, so this layer is the
// boundary where an untrusted Trace — one that came off disk, through
// src/inject, or from any future real-world loader — is turned back into
// something the feature/training pipeline can consume without crashing or
// silently mis-training.
//
// Policy, per record:
//   * quarantine — the record is unusable (identity fields outside the
//     machine, inverted time interval, counter reset/rollback artifacts);
//     it is dropped and counted, never guessed at.
//   * repair — the record is salvageable (out-of-order log position,
//     non-finite or out-of-range statistic fields); it is fixed in place
//     (stable re-sort, imputation with the "empty window" value 0,
//     clamping to physical bounds) and counted.
//   * accept — everything else passes through byte-identical.
//
// Every count lands in the structured IngestReport AND in obs counters
// under `ingest.*`, so a pipeline fed corrupted input is accountable:
// records_in == accepted + quarantined, and repairs are itemized.
//
// Determinism: sanitization is serial and order-stable; the same input
// produces the same survivors, the same report, and the same downstream
// metrics at any REPRO_THREADS.
#pragma once

#include <cstdint>
#include <string>

#include "faults/sbe_log.hpp"
#include "sim/trace.hpp"

namespace repro::sim {

/// Reason-coded outcome of sanitizing the sample array.
struct SampleSanitizeStats {
  std::uint64_t seen = 0;
  std::uint64_t accepted = 0;            ///< kept (possibly repaired)
  std::uint64_t quarantined = 0;         ///< dropped whole
  // Quarantine reasons:
  std::uint64_t bad_identity = 0;        ///< run/app/node outside the machine
  std::uint64_t bad_interval = 0;        ///< end < start or negative times
  // Repair reasons (field-level; one sample can contribute several):
  std::uint64_t fields_imputed = 0;      ///< NaN/Inf -> 0 ("empty window")
  std::uint64_t fields_clamped = 0;      ///< finite spike -> bounds
  std::uint64_t labels_clamped = 0;      ///< implausible sbe_count capped
  std::uint64_t recent_len_clamped = 0;  ///< recent tail length repaired
  std::uint64_t samples_repaired = 0;    ///< samples with >= 1 repair
};

/// Full-trace ingest accounting: every dropped or repaired record in the
/// prediction pipeline's inputs (samples + SBE log) is accounted for here.
struct IngestReport {
  SampleSanitizeStats samples;
  faults::SbeSanitizeStats sbe;

  [[nodiscard]] std::uint64_t records_seen() const noexcept {
    return samples.seen + sbe.accepted + sbe.quarantined();
  }
  [[nodiscard]] std::uint64_t quarantined() const noexcept {
    return samples.quarantined + sbe.quarantined();
  }
  [[nodiscard]] std::uint64_t repaired() const noexcept {
    return samples.samples_repaired + sbe.reordered_repaired;
  }
  [[nodiscard]] bool clean() const noexcept {
    return quarantined() == 0 && repaired() == 0 &&
           samples.fields_imputed == 0 && samples.fields_clamped == 0;
  }
  /// One-line human summary ("accepted A, quarantined Q (reasons...), ...").
  [[nodiscard]] std::string summary() const;
};

/// The hardened ingest entry: validates and repairs trace.samples in place
/// (quarantined samples are removed, survivor order is preserved) and
/// rebuilds the SBE log from its (possibly dirty) events via
/// faults::rebuild_log.
/// Publishes `ingest.*` obs counters. A clean trace passes through
/// bit-identical — ingest of an uncorrupted trace changes nothing.
IngestReport ingest_trace(Trace& trace);

}  // namespace repro::sim
