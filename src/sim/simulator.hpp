// End-to-end trace simulator: scheduler -> thermal model -> fault model,
// stepped minute by minute, producing a Trace (see trace.hpp).
//
// The minute loop (Sec. II's data sources, stitched together):
//   1. complete due runs, admit new batch jobs (Scheduler);
//   2. snapshot pre-run telemetry windows for runs that just started;
//   3. one parallel pass over whole slots of nodes: advance the thermal/
//      power state, sum slot neighbours, record telemetry, bin idle
//      minutes, and for every busy <run, node> accumulate run statistics,
//      bin busy-period T/P samples and evaluate the minute's SBE rate;
//   4. serially, in active-run order, draw each busy node's SBE count from
//      its rate (fault model);
//   5. at run completion, freeze the RunNodeSample records and publish SBE
//      observations to the SbeLog (snapshot semantics: history queries only
//      see errors from runs that already ended).
//
// Why the trace stays bit-identical for any thread count: step 3 uses no
// shared RNG (thermal noise comes from per-node streams) and writes only
// per-node state, with every float reduction in a fixed per-node or
// per-slot order. Step 4 is the only consumer of the simulator's single
// rng_ stream; it runs on one thread in the iteration order of the
// active-run map, so every run sees the same draws as in a serial loop.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "faults/sbe_model.hpp"
#include "sim/trace.hpp"
#include "telemetry/thermal_model.hpp"
#include "workload/scheduler.hpp"

namespace repro::sim {

struct SimConfig {
  topo::SystemConfig system = topo::SystemConfig::titan_scaled();
  std::int64_t days = 102;
  std::uint64_t seed = 42;

  workload::CatalogParams catalog;
  workload::SchedulerParams scheduler;
  telemetry::ThermalParams thermal;
  faults::FaultParams faults;

  /// Nodes to record at full resolution (Fig 8 reproduction).
  std::vector<topo::NodeId> probe_nodes;

  /// Convenience: small config for unit tests (tiny machine, few days).
  [[nodiscard]] static SimConfig testing(std::int64_t test_days = 20,
                                         std::uint64_t test_seed = 7);
};

/// Runs the whole simulation; the returned Trace is self-contained.
Trace simulate(const SimConfig& config);

/// Incremental variant for callers that want to observe the machine while
/// it runs (examples use this for "live" monitoring demos).
class Simulator {
 public:
  explicit Simulator(const SimConfig& config);

  /// Advances exactly one minute.
  void step();
  /// Advances `minutes` minutes.
  void run_for(Minute minutes);

  [[nodiscard]] Minute now() const noexcept { return now_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  /// Syncs cumulative telemetry into the trace and takes ownership of it;
  /// the simulator must not be used afterwards.
  [[nodiscard]] Trace take_trace() &&;

  [[nodiscard]] const workload::Scheduler& scheduler() const noexcept {
    return scheduler_;
  }
  [[nodiscard]] const faults::SbeModel& fault_model() const noexcept {
    return sbe_model_;
  }
  [[nodiscard]] const telemetry::TelemetryStore& telemetry() const noexcept {
    return store_;
  }

 private:
  struct NodeRunState {
    topo::NodeId node = -1;
    telemetry::WindowAccumulator gpu_temp;
    telemetry::WindowAccumulator gpu_power;
    telemetry::WindowAccumulator cpu_temp;
    telemetry::WindowAccumulator slot_temp;
    telemetry::WindowAccumulator slot_power;
    Histogram temp_hist{10.0, 70.0, 60};
    Histogram power_hist{0.0, 300.0, 75};
    std::array<telemetry::FourStats, kPreWindowsMin.size()> pre_temp;
    std::array<telemetry::FourStats, kPreWindowsMin.size()> pre_power;
    std::array<float, RunNodeSample::kRecentMinutes> recent_temp{};
    std::array<float, RunNodeSample::kRecentMinutes> recent_power{};
    std::uint8_t recent_len = 0;
    workload::AppId app = -1;
    workload::AppId prev_app = -1;
    std::uint32_t sbe = 0;
    double expected = 0.0;
    double luck = 1.0;  ///< hidden ground-truth rate multiplier
  };
  struct RunState {
    workload::ApRun run;
    std::vector<NodeRunState> nodes;
  };

  void begin_run(const workload::ApRun& run);
  void finish_run(RunState& rs);
  /// Step 3 for nodes [begin, end), a whole number of slots.
  void update_nodes(std::size_t begin, std::size_t end, Minute t);

  SimConfig config_;
  topo::Topology topology_;
  Rng rng_;
  workload::AppCatalog catalog_;
  workload::Scheduler scheduler_;
  telemetry::ThermalModel thermal_;
  telemetry::TelemetryStore store_;
  faults::SbeModel sbe_model_;
  Trace trace_;

  Minute now_ = 0;
  std::unordered_map<workload::RunId, RunState> active_;
  std::vector<float> utilization_;
  std::vector<float> slot_temp_sum_;
  std::vector<float> slot_power_sum_;
  std::vector<workload::AppId> last_app_;     ///< per node
  std::vector<Minute> last_sbe_minute_;       ///< per node; -1 if never
  /// Per node: its state in the active run, or null when idle. Points into
  /// active_'s RunState::nodes, which neither map rehashing nor moves
  /// relocate; set in begin_run, cleared in finish_run.
  std::vector<NodeRunState*> busy_;
  std::vector<double> lambda_;                ///< per node; this minute's rate
  workload::RunId seen_runs_ = 0;
};

}  // namespace repro::sim
