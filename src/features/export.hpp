// CSV export of traces and feature matrices, for offline analysis and
// plotting (the figures in the paper are density/CDF plots; the bench
// binaries print summaries, and this module gets the raw data out).
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "features/features.hpp"
#include "sim/trace.hpp"

namespace repro::features {

/// Writes one CSV row per RunNodeSample: identity, timing, utilization,
/// run/pre-window T/P statistics, label. Returns rows written.
std::size_t export_samples_csv(const sim::Trace& trace, std::ostream& out);

/// Writes the SBE event log (run, app, node, window, count).
std::size_t export_sbe_log_csv(const sim::Trace& trace, std::ostream& out);

/// Writes a probe's full-resolution telemetry series (one row per minute).
std::size_t export_probe_csv(const sim::ProbeSeries& probe,
                             std::ostream& out);

/// Writes the feature matrix + label for the given samples, using the
/// extractor's feature names as the header.
std::size_t export_features_csv(const sim::Trace& trace,
                                const FeatureExtractor& extractor,
                                std::span<const std::size_t> sample_idx,
                                std::ostream& out);

}  // namespace repro::features
