// Batch-job scheduler.
//
// Reproduces the paper's trace semantics (Sec. II): users submit batch
// jobs; each job contains one or more apruns (application launches); an
// aprun runs the same binary on an allocated set of nodes for its whole
// duration. nvidia-smi SBE counters are snapshotted per job, so the unit of
// labeling downstream is the <application, node> pair over an aprun.
//
// The scheduler is deliberately simple (first-fit from a random cabinet,
// which yields both spatial locality within allocations and machine-wide
// spread), but it maintains the invariants that matter for the study:
// a node runs at most one aprun at a time, allocations are released at the
// recorded end minute, and per-run utilization follows the application's
// characteristic level with run-to-run jitter and a slow intra-run phase.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "topology/topology.hpp"
#include "workload/application.hpp"

namespace repro::workload {

using RunId = std::int64_t;
using JobId = std::int64_t;
using UserId = std::int32_t;

/// One application launch (aprun) on a set of nodes.
struct ApRun {
  RunId id = -1;
  JobId job = -1;
  UserId user = -1;
  AppId app = -1;
  Minute start = 0;
  Minute end = 0;                    ///< exclusive; end - start = runtime
  std::vector<topo::NodeId> nodes;   ///< allocation, sorted ascending
  double util_level = 0.0;           ///< this run's mean GPU busy fraction
  double mem_per_node_gb = 0.0;      ///< GPU memory footprint per node
  double util_phase = 0.0;           ///< intra-run utilization wave phase
  double util_period_min = 60.0;     ///< intra-run utilization wave period

  [[nodiscard]] Minute runtime_min() const noexcept { return end - start; }
  /// GPU core-hours consumed: nodes x runtime x utilization.
  [[nodiscard]] double gpu_core_hours() const noexcept {
    return static_cast<double>(nodes.size()) *
           static_cast<double>(runtime_min()) / 60.0 * util_level;
  }
  /// Aggregate GPU memory over the allocation (the paper's "total memory").
  [[nodiscard]] double total_mem_gb() const noexcept {
    return static_cast<double>(nodes.size()) * mem_per_node_gb;
  }
  /// Instantaneous utilization at minute t (0 outside [start, end)).
  [[nodiscard]] float utilization_at(Minute t) const noexcept;
};

struct SchedulerParams {
  double jobs_per_hour = 12.0;      ///< batch-job arrival rate
  double apruns_per_job_mean = 1.6; ///< geometric mean of apruns per job
  std::int32_t num_users = 60;
  double target_occupancy = 0.85;   ///< back off submissions above this
};

/// Event-free minute-stepped scheduler over one machine.
class Scheduler {
 public:
  Scheduler(const topo::Topology& topology, const AppCatalog& catalog,
            const SchedulerParams& params, Rng rng);

  /// Advances to minute `now`: completes due runs (returned) and admits new
  /// jobs. Completed runs are removed from the active set.
  std::vector<ApRun> step(Minute now);

  [[nodiscard]] const std::vector<ApRun>& active_runs() const noexcept {
    return active_;
  }
  /// Fraction of nodes currently allocated.
  [[nodiscard]] double occupancy() const noexcept;
  [[nodiscard]] std::int64_t runs_started() const noexcept {
    return next_run_id_;
  }

 private:
  std::optional<std::vector<topo::NodeId>> allocate(std::int32_t count);
  void release(const std::vector<topo::NodeId>& nodes);
  void admit_jobs(Minute now);

  const topo::Topology& topology_;
  const AppCatalog& catalog_;
  SchedulerParams params_;
  Rng rng_;

  std::vector<ApRun> active_;
  std::vector<char> busy_;  // per node
  std::int64_t busy_count_ = 0;
  RunId next_run_id_ = 0;
  JobId next_job_id_ = 0;
};

}  // namespace repro::workload
