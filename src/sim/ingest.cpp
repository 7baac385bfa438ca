#include "sim/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/obs.hpp"

namespace repro::sim {

namespace {

// Physical plausibility bounds for RunNodeSample statistic fields. Values
// outside are sensor spikes: finite ones clamp, non-finite ones impute.
constexpr float kTempLo = -40.0f, kTempHi = 150.0f;   // Celsius
constexpr float kPowerLo = 0.0f, kPowerHi = 2000.0f;  // watts
constexpr float kStatAbsHi = 4000.0f;  // |std / diff stats| cap, both channels
constexpr float kUtilAbsHi = 1.0e9f;   // runtime/core-hours/memory cap

/// Repairs one statistic field: non-finite imputes to the empty-window
/// value 0 (clamped into [lo, hi]); finite values outside [lo, hi] clamp.
/// Returns true when the field was touched.
bool fix_field(float& v, float lo, float hi, SampleSanitizeStats& stats) {
  if (!std::isfinite(v)) {
    v = std::clamp(0.0f, lo, hi);
    ++stats.fields_imputed;
    return true;
  }
  if (v < lo || v > hi) {
    v = std::clamp(v, lo, hi);
    ++stats.fields_clamped;
    return true;
  }
  return false;
}

/// FourStats: the mean lives in the channel's physical range; std and the
/// diff stats are magnitude-capped (std additionally can't be negative).
bool fix_four(telemetry::FourStats& s, float mean_lo, float mean_hi,
              float abs_hi, SampleSanitizeStats& stats) {
  bool touched = fix_field(s.mean, mean_lo, mean_hi, stats);
  touched |= fix_field(s.std, 0.0f, abs_hi, stats);
  touched |= fix_field(s.diff_mean, -abs_hi, abs_hi, stats);
  touched |= fix_field(s.diff_std, 0.0f, abs_hi, stats);
  return touched;
}

/// Validates and repairs trace.samples in place (see ingest.hpp for the
/// policy). Quarantined samples are removed; survivor order is preserved.
SampleSanitizeStats sanitize_samples(Trace& trace) {
  SampleSanitizeStats stats;
  stats.seen = trace.samples.size();
  const auto total_nodes = trace.total_nodes();
  const auto total_apps = static_cast<std::int64_t>(trace.catalog.size());
  std::size_t w = 0;
  for (std::size_t r = 0; r < trace.samples.size(); ++r) {
    RunNodeSample s = trace.samples[r];
    // Identity: downstream indexes SbeLog/topology/catalog by these, so a
    // record outside the machine can only be quarantined, never repaired.
    if (s.node < 0 || s.node >= total_nodes || s.app < 0 ||
        s.app >= total_apps || s.run < 0) {
      ++stats.bad_identity;
      ++stats.quarantined;
      continue;
    }
    if (s.start < 0 || s.end < s.start) {
      ++stats.bad_interval;
      ++stats.quarantined;
      continue;
    }
    bool repaired = false;
    // prev_app of -1 means "none"; anything else out of range imputes -1.
    if (s.prev_app < -1 || s.prev_app >= total_apps) {
      s.prev_app = -1;
      ++stats.fields_imputed;
      repaired = true;
    }
    repaired |= fix_field(s.runtime_min, 0.0f, kUtilAbsHi, stats);
    repaired |= fix_field(s.num_nodes, 0.0f, kUtilAbsHi, stats);
    repaired |= fix_field(s.gpu_core_hours, 0.0f, kUtilAbsHi, stats);
    repaired |= fix_field(s.total_mem_gb, 0.0f, kUtilAbsHi, stats);
    repaired |= fix_field(s.max_mem_gb, 0.0f, kUtilAbsHi, stats);

    repaired |= fix_four(s.run_gpu_temp, kTempLo, kTempHi, kStatAbsHi, stats);
    repaired |=
        fix_four(s.run_gpu_power, kPowerLo, kPowerHi, kStatAbsHi, stats);
    for (std::size_t wdx = 0; wdx < kPreWindowsMin.size(); ++wdx) {
      repaired |= fix_four(s.pre_gpu_temp[wdx], kTempLo, kTempHi, kStatAbsHi,
                           stats);
      repaired |= fix_four(s.pre_gpu_power[wdx], kPowerLo, kPowerHi,
                           kStatAbsHi, stats);
    }
    repaired |= fix_four(s.run_cpu_temp, kTempLo, kTempHi, kStatAbsHi, stats);
    repaired |=
        fix_four(s.slot_gpu_temp, kTempLo, kTempHi, kStatAbsHi, stats);
    repaired |=
        fix_four(s.slot_gpu_power, kPowerLo, kPowerHi, kStatAbsHi, stats);

    if (s.recent_len > RunNodeSample::kRecentMinutes) {
      s.recent_len = 0;  // length is untrustworthy; drop the whole tail
      ++stats.recent_len_clamped;
      repaired = true;
    }
    for (std::size_t i = 0; i < s.recent_len; ++i) {
      repaired |= fix_field(s.recent_gpu_temp[i], kTempLo, kTempHi, stats);
      repaired |= fix_field(s.recent_gpu_power[i], kPowerLo, kPowerHi, stats);
    }
    // The label: a count past the rollback threshold is a counter
    // artifact, but the sample itself is fine — cap it so "affected"
    // stays true without a wrapped magnitude leaking anywhere.
    if (s.sbe_count > faults::kMaxPlausibleSbeCount) {
      s.sbe_count = faults::kMaxPlausibleSbeCount;
      ++stats.labels_clamped;
      repaired = true;
    }
    repaired |= fix_field(s.expected_sbe, 0.0f, kUtilAbsHi, stats);

    if (repaired) ++stats.samples_repaired;
    trace.samples[w++] = s;
  }
  trace.samples.resize(w);
  stats.accepted = w;
  return stats;
}

}  // namespace

IngestReport ingest_trace(Trace& trace) {
  OBS_SPAN("ingest.trace");
  IngestReport report;
  report.samples = sanitize_samples(trace);
  std::vector<faults::SbeEvent> events =
      trace.pending_sbe_events.empty()
          ? std::move(trace.sbe_log).take_events()
          : std::move(trace.pending_sbe_events);
  trace.pending_sbe_events.clear();
  trace.sbe_log = faults::rebuild_log(std::move(events), trace.total_nodes(),
                                      static_cast<std::int32_t>(
                                          trace.catalog.size()),
                                      &report.sbe);

  OBS_COUNT_ADD("ingest.samples_seen", report.samples.seen);
  OBS_COUNT_ADD("ingest.samples_quarantined", report.samples.quarantined);
  OBS_COUNT_ADD("ingest.samples_repaired", report.samples.samples_repaired);
  OBS_COUNT_ADD("ingest.sample_fields_imputed", report.samples.fields_imputed);
  OBS_COUNT_ADD("ingest.sample_fields_clamped", report.samples.fields_clamped);
  OBS_COUNT_ADD("ingest.sbe_events_seen",
                report.sbe.accepted + report.sbe.quarantined());
  OBS_COUNT_ADD("ingest.sbe_quarantined", report.sbe.quarantined());
  OBS_COUNT_ADD("ingest.sbe_reordered_repaired", report.sbe.reordered_repaired);
  OBS_COUNT_ADD("ingest.sbe_duplicates_dropped", report.sbe.duplicates_dropped);
  OBS_COUNT_ADD("ingest.sbe_resets_dropped", report.sbe.resets_dropped);
  OBS_COUNT_ADD("ingest.sbe_rollbacks_dropped", report.sbe.rollbacks_dropped);
  return report;
}

std::string IngestReport::summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ingest: %llu records seen, %llu quarantined, %llu repaired "
      "(samples: %llu kept / %llu dropped, %llu imputed + %llu clamped "
      "fields; sbe: %llu kept, %llu reordered, %llu dups, %llu resets, "
      "%llu rollbacks)",
      static_cast<unsigned long long>(records_seen()),
      static_cast<unsigned long long>(quarantined()),
      static_cast<unsigned long long>(repaired()),
      static_cast<unsigned long long>(samples.accepted),
      static_cast<unsigned long long>(samples.quarantined),
      static_cast<unsigned long long>(samples.fields_imputed),
      static_cast<unsigned long long>(samples.fields_clamped),
      static_cast<unsigned long long>(sbe.accepted),
      static_cast<unsigned long long>(sbe.reordered_repaired),
      static_cast<unsigned long long>(sbe.duplicates_dropped),
      static_cast<unsigned long long>(sbe.resets_dropped),
      static_cast<unsigned long long>(sbe.rollbacks_dropped));
  return buf;
}

}  // namespace repro::sim
