// End-to-end trace simulator: scheduler -> thermal model -> fault model,
// stepped minute by minute, producing a Trace (see trace.hpp).
//
// The simulator advances in blocks of up to kBlockMinutes minutes (a run
// of run_for(n) is cut into blocks; run_for(1) is a block of one). Each block
// has three phases (Sec. II's data sources, stitched together):
//   1. pre-pass, serial: step the Scheduler through every minute of the
//      block, keeping each minute's completions and admissions, staging a
//      RunState for every admitted run, and building a per-node timeline of
//      which run each node is in at each minute. The scheduler reads no
//      telemetry and no fault state, so it can run ahead of them;
//   2. one parallel pass over chunks of whole cages of nodes, each chunk
//      walking the block's minutes in order: snapshot pre-run telemetry
//      windows for runs that start, advance the thermal/power state, sum
//      slot neighbours, record telemetry, bin idle minutes, and for every
//      busy <run, node> accumulate run statistics, bin busy-period T/P
//      samples and evaluate the minute's SBE rate both without and with
//      the recent-SBE boost; probes record their full-resolution series;
//   3. replay, serial, minute by minute: at run completion, freeze the
//      RunNodeSample records and publish SBE observations to the SbeLog
//      (snapshot semantics: history queries only see errors from runs that
//      already ended); move the minute's staged runs into the active-run
//      map; then, in active-run order, pick each busy node's rate by
//      whether it erred in the last 24 hours, add it to the run's expected
//      count and draw the node's SBE count (fault model).
// A block's replay runs as one more chunk of the next block's parallel
// pass: neither writes state the other reads (the replay owns the active-run
// map, the fault-draw state and the finished-run outputs; idle minutes
// are binned apart and merged when run_for returns). The last block of a
// run_for call is replayed before it returns.
//
// Why the trace stays bit-identical for any thread count and any block
// cut: phase 2 uses no shared RNG (thermal noise comes from per-node
// streams) and writes only per-node, per-slot or per-probe state, with
// every float reduction in a fixed per-node or per-slot order and each
// node's minutes in time order. The only state phase 2 cannot know is
// whether a node's recent-SBE flag flips inside the block, since that
// depends on draws for runs that end earlier in the block; it therefore
// keeps both rates, and the replay picks one exactly as a minute-by-minute
// loop would. Phase 3 is the only consumer of the simulator's single rng_
// stream and repeats the minute loop's map inserts, erases and iteration
// order, so every run sees the same draws as in a serial loop. Histogram
// bins are integer counts, so binning idle minutes apart changes no bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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

/// The machine behind simulate(). Advancing it in pieces (run_for calls
/// of any length) saves the same trace bytes as one simulate() call.
class Simulator {
 public:
  explicit Simulator(const SimConfig& config);

  /// Advances `minutes` minutes, in blocks of at most kBlockMinutes.
  void run_for(Minute minutes);

  [[nodiscard]] Minute now() const noexcept { return now_; }
  /// Syncs cumulative telemetry into the trace and takes ownership of it;
  /// the simulator must not be used afterwards.
  [[nodiscard]] Trace take_trace() &&;

 private:
  /// Minutes per block (see the file comment); the last one may be shorter.
  static constexpr Minute kBlockMinutes = 60;

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
    double luck = 1.0;  ///< hidden ground-truth rate multiplier
  };
  struct RunState {
    workload::ApRun run;
    std::vector<NodeRunState> nodes;
  };
  /// Where a node is at one minute of a block: its run and its state in
  /// that run, both null when the node is idle.
  struct Occupant {
    const RunState* rs = nullptr;
    NodeRunState* ns = nullptr;
  };
  /// One block of minutes, from its pre-pass to its replay.
  struct Block {
    Minute start = 0;
    Minute minutes = 0;
    /// Per minute: the runs the scheduler completed, in its order, and the
    /// runs it admitted, in run-id order, until the replay moves them into
    /// active_.
    std::array<std::vector<workload::ApRun>, kBlockMinutes> completed;
    std::array<std::vector<std::unique_ptr<RunState>>, kBlockMinutes>
        admitted;
    /// Busy node-minutes' SBE rates, [minute * nodes + node].
    std::vector<faults::SbeModel::MinuteRates> rates;
  };

  /// Phase 1: scheduler steps, staged runs and the occupant timeline.
  void schedule_block(Block& block);
  /// Phase 2 for nodes [begin, end), a whole number of cages.
  void update_nodes(Block& block, std::size_t begin, std::size_t end);
  /// Phase 3: completions, inserts and fault draws, minute by minute.
  void replay_block(Block& block);
  void snapshot_pre_run(NodeRunState& ns) const;
  void finish_run(RunState& rs);

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
  std::vector<float> utilization_;            ///< per node; current minute
  std::vector<float> slot_temp_sum_;
  std::vector<float> slot_power_sum_;
  std::vector<workload::AppId> last_app_;     ///< per node
  workload::RunId seen_runs_ = 0;

  // Owned by the replay, which may run beside the next block's node pass.
  // RunStates live on the heap, so Occupant pointers survive the move
  // from a block's admissions into active_.
  std::unordered_map<workload::RunId, std::unique_ptr<RunState>> active_;
  std::vector<Minute> last_sbe_minute_;       ///< per node; -1 if never
  std::vector<std::uint32_t> sbe_;            ///< per node; current run
  std::vector<double> expected_;              ///< per node; current run

  // Sized on the first run_for, so construction stays cheap.
  std::vector<Occupant> current_;    ///< per node, after the last pre-pass
  std::vector<Occupant> occupants_;  ///< [minute * nodes + node], one block
  /// Idle-minute T/P samples not yet merged into trace_.period_hists: the
  /// replay merges finished runs there while a node pass runs.
  std::vector<Histogram> idle_temp_;
  std::vector<Histogram> idle_power_;
  /// The block in its node pass and the one being replayed beside it.
  std::array<Block, 2> blocks_;
};

}  // namespace repro::sim
