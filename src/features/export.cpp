#include "features/export.hpp"

#include <ostream>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace repro::features {

namespace {
void push_four(std::vector<double>& row, const telemetry::FourStats& s) {
  row.push_back(s.mean);
  row.push_back(s.std);
  row.push_back(s.diff_mean);
  row.push_back(s.diff_std);
}
}  // namespace

std::size_t export_samples_csv(const sim::Trace& trace, std::ostream& out) {
  std::vector<std::string> header = {
      "run",           "app",          "app_name",      "prev_app",
      "node",          "start_min",    "end_min",       "runtime_min",
      "num_nodes",     "core_hours",   "total_mem_gb",  "max_mem_gb",
      "sbe_count",     "expected_sbe"};
  for (const char* ch : {"run_temp", "run_power", "cpu_temp", "slot_temp",
                         "slot_power"}) {
    for (const char* st : {"_mean", "_std", "_dmean", "_dstd"}) {
      header.push_back(std::string(ch) + st);
    }
  }
  CsvWriter writer(out, header);
  std::vector<std::string> cells;
  for (const sim::RunNodeSample& s : trace.samples) {
    cells.clear();
    cells.push_back(std::to_string(s.run));
    cells.push_back(std::to_string(s.app));
    cells.push_back(trace.catalog.spec(s.app).name);
    cells.push_back(std::to_string(s.prev_app));
    cells.push_back(std::to_string(s.node));
    cells.push_back(std::to_string(s.start));
    cells.push_back(std::to_string(s.end));
    std::vector<double> nums = {s.runtime_min, s.num_nodes, s.gpu_core_hours,
                                s.total_mem_gb, s.max_mem_gb};
    for (const double v : nums) cells.push_back(fmt(v, 3));
    cells.push_back(std::to_string(s.sbe_count));
    cells.push_back(fmt(s.expected_sbe, 4));
    std::vector<double> stats;
    push_four(stats, s.run_gpu_temp);
    push_four(stats, s.run_gpu_power);
    push_four(stats, s.run_cpu_temp);
    push_four(stats, s.slot_gpu_temp);
    push_four(stats, s.slot_gpu_power);
    for (const double v : stats) cells.push_back(fmt(v, 3));
    writer.write_row(cells);
  }
  return writer.rows_written();
}

std::size_t export_sbe_log_csv(const sim::Trace& trace, std::ostream& out) {
  CsvWriter writer(out, {"run", "app", "node", "start_min", "end_min",
                         "count"});
  for (const auto& e : trace.sbe_log.events()) {
    writer.write_row({std::to_string(e.run), std::to_string(e.app),
                      std::to_string(e.node), std::to_string(e.start),
                      std::to_string(e.end), std::to_string(e.count)});
  }
  return writer.rows_written();
}

std::size_t export_probe_csv(const sim::ProbeSeries& probe,
                             std::ostream& out) {
  CsvWriter writer(out, {"minute", "gpu_temp", "gpu_power", "cpu_temp",
                         "slot_avg_temp", "slot_avg_power", "cage_avg_temp"});
  for (std::size_t m = 0; m < probe.gpu_temp.size(); ++m) {
    writer.write_row(std::vector<double>{
        static_cast<double>(m), probe.gpu_temp[m], probe.gpu_power[m],
        probe.cpu_temp[m],
        m < probe.slot_avg_temp.size() ? probe.slot_avg_temp[m] : 0.0,
        m < probe.slot_avg_power.size() ? probe.slot_avg_power[m] : 0.0,
        m < probe.cage_avg_temp.size() ? probe.cage_avg_temp[m] : 0.0},
        3);
  }
  return writer.rows_written();
}

std::size_t export_features_csv(const sim::Trace& trace,
                                const FeatureExtractor& extractor,
                                std::span<const std::size_t> sample_idx,
                                std::ostream& out) {
  std::vector<std::string> header = extractor.names();
  header.push_back("label");
  CsvWriter writer(out, header);
  std::vector<float> row(extractor.dim());
  std::vector<double> cells(extractor.dim() + 1);
  for (const std::size_t i : sample_idx) {
    REPRO_CHECK(i < trace.samples.size());
    extractor.extract(trace.samples[i], row);
    for (std::size_t c = 0; c < row.size(); ++c) cells[c] = row[c];
    cells.back() = trace.samples[i].sbe_affected() ? 1.0 : 0.0;
    writer.write_row(cells, 5);
  }
  return writer.rows_written();
}

}  // namespace repro::features
