// trace_tool: command-line utility around the simulator and exporter —
// simulate traces, export CSVs for offline plotting, and summarize.
//
//   trace_tool summary   [days] [seed]
//   trace_tool samples   [days] [seed] > samples.csv
//   trace_tool sbe-log   [days] [seed] > sbe.csv
//   trace_tool features  [days] [seed] > features.csv
//   trace_tool probe <node> [days] [seed] > probe.csv
//
// Any command additionally accepts --snapshot: enables obs metrics for the
// run and prints the flat key-sorted obs snapshot to stderr afterwards, so
// pipeline counters are inspectable from the shell without a bench run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/sample_index.hpp"
#include "features/export.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace repro;

sim::SimConfig tool_config(std::int64_t days, std::uint64_t seed) {
  sim::SimConfig config;
  config.system = {.grid_x = 8, .grid_y = 4, .cages_per_cabinet = 1,
                   .slots_per_cage = 4, .nodes_per_slot = 4};
  config.days = days;
  config.seed = seed;
  config.faults.base_rate_per_min = 2.5e-4;
  return config;
}

int usage() {
  std::fprintf(stderr,
               "usage: trace_tool <summary|samples|sbe-log|features> "
               "[days] [seed] [--snapshot]\n"
               "       trace_tool probe <node> [days] [seed] [--snapshot]\n"
               "CSV output goes to stdout; progress to stderr.\n"
               "--snapshot: enable obs metrics and print the flat key-sorted\n"
               "            obs snapshot to stderr when the command finishes.\n");
  return 2;
}

/// Prints every obs metric as "key value" lines (snapshot() is key-sorted).
void print_snapshot() {
  std::fprintf(stderr, "# obs snapshot (key-sorted)\n");
  for (const obs::Metric& m : obs::snapshot()) {
    if (m.integral) {
      std::fprintf(stderr, "%s %llu\n", m.key.c_str(),
                   static_cast<unsigned long long>(m.count));
    } else {
      std::fprintf(stderr, "%s %.9g\n", m.key.c_str(), m.value);
    }
  }
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  int arg = 2;
  topo::NodeId probe_node = 0;
  if (cmd == "probe") {
    if (argc < 3) return usage();
    probe_node = std::atoi(argv[arg++]);
  }
  const std::int64_t days = argc > arg ? std::atoll(argv[arg]) : 30;
  const std::uint64_t seed =
      argc > arg + 1 ? std::strtoull(argv[arg + 1], nullptr, 10) : 1;

  sim::SimConfig config = tool_config(days, seed);
  if (cmd == "probe") config.probe_nodes = {probe_node};
  std::fprintf(stderr, "simulating %lld days on %d GPUs (seed %llu)...\n",
               static_cast<long long>(days), config.system.total_nodes(),
               static_cast<unsigned long long>(seed));
  const sim::Trace trace = sim::simulate(config);

  if (cmd == "summary") {
    const auto mask = trace.sbe_log.offender_mask(0, trace.duration);
    int offenders = 0;
    for (const char c : mask) offenders += c;
    std::printf("nodes          : %d\n", trace.total_nodes());
    std::printf("duration       : %lld days\n", static_cast<long long>(days));
    std::printf("applications   : %zu\n", trace.catalog.size());
    std::printf("aprun runs     : %zu\n", trace.run_count());
    std::printf("samples        : %zu\n", trace.samples.size());
    std::printf("SBE events     : %zu\n", trace.sbe_log.events().size());
    std::printf("positive rate  : %.3f%%\n", 100.0 * trace.positive_rate());
    std::printf("offender nodes : %d (%.1f%%)\n", offenders,
                100.0 * offenders / trace.total_nodes());
    return 0;
  }
  if (cmd == "samples") {
    const auto rows = features::export_samples_csv(trace, std::cout);
    std::fprintf(stderr, "wrote %zu sample rows\n", rows);
    return 0;
  }
  if (cmd == "sbe-log") {
    const auto rows = features::export_sbe_log_csv(trace, std::cout);
    std::fprintf(stderr, "wrote %zu SBE events\n", rows);
    return 0;
  }
  if (cmd == "features") {
    const features::FeatureExtractor fx(trace, {});
    const auto idx = core::samples_in(trace, {0, trace.duration + 1});
    const auto rows = features::export_features_csv(trace, fx, idx, std::cout);
    std::fprintf(stderr, "wrote %zu feature rows x %zu columns\n", rows,
                 fx.dim() + 1);
    return 0;
  }
  if (cmd == "probe") {
    const auto rows = features::export_probe_csv(trace.probes.at(0), std::cout);
    std::fprintf(stderr, "wrote %zu probe minutes for node %d\n", rows,
                 probe_node);
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --snapshot wherever it appears before positional parsing.
  std::vector<char*> args;
  bool snapshot = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      snapshot = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (snapshot) obs::set_enabled(true);
  const int rc = run(static_cast<int>(args.size()), args.data());
  if (snapshot && rc == 0) print_snapshot();
  return rc;
}
