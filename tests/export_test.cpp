#include "features/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.hpp"
#include "core/sample_index.hpp"
#include "support/test_trace.hpp"

namespace repro::sim {
namespace {

using repro::testing::shared_tiny_trace;

TEST(Export, SamplesCsvRoundTrips) {
  const Trace& trace = shared_tiny_trace();
  std::ostringstream out;
  const std::size_t rows = features::export_samples_csv(trace, out);
  EXPECT_EQ(rows, trace.samples.size());

  std::istringstream in(out.str());
  const CsvContent csv = read_csv(in);
  ASSERT_EQ(csv.rows.size(), trace.samples.size());
  ASSERT_GE(csv.header.size(), 14u);
  EXPECT_EQ(csv.header[0], "run");
  // Spot-check a row against the sample.
  const auto& s = trace.samples[7];
  EXPECT_EQ(csv.rows[7][0], std::to_string(s.run));
  EXPECT_EQ(csv.rows[7][4], std::to_string(s.node));
  EXPECT_EQ(csv.rows[7][12], std::to_string(s.sbe_count));
  EXPECT_EQ(csv.rows[7][2], trace.catalog.spec(s.app).name);
}

TEST(Export, SbeLogCsvMatchesEvents) {
  const Trace& trace = shared_tiny_trace();
  std::ostringstream out;
  const std::size_t rows = features::export_sbe_log_csv(trace, out);
  EXPECT_EQ(rows, trace.sbe_log.events().size());
  std::istringstream in(out.str());
  const CsvContent csv = read_csv(in);
  ASSERT_EQ(csv.rows.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(csv.rows[i][5],
              std::to_string(trace.sbe_log.events()[i].count));
  }
}

TEST(Export, FeaturesCsvHasLabelColumn) {
  const Trace& trace = shared_tiny_trace();
  const features::FeatureExtractor fx(trace, {});
  const std::vector<std::size_t> idx = {0, 3, 9};
  std::ostringstream out;
  const std::size_t rows = features::export_features_csv(trace, fx, idx, out);
  EXPECT_EQ(rows, 3u);
  std::istringstream in(out.str());
  const CsvContent csv = read_csv(in);
  ASSERT_EQ(csv.header.size(), fx.dim() + 1);
  EXPECT_EQ(csv.header.back(), "label");
  for (std::size_t r = 0; r < 3; ++r) {
    const double label = std::stod(csv.rows[r].back());
    EXPECT_EQ(label, trace.samples[idx[r]].sbe_affected() ? 1.0 : 0.0);
  }
}

TEST(Export, ProbeCsvOneRowPerMinute) {
  SimConfig cfg = SimConfig::testing(2, 13);
  cfg.probe_nodes = {1};
  const Trace trace = simulate(cfg);
  std::ostringstream out;
  const std::size_t rows = features::export_probe_csv(trace.probes[0], out);
  EXPECT_EQ(rows, static_cast<std::size_t>(trace.duration));
}

}  // namespace
}  // namespace repro::sim
