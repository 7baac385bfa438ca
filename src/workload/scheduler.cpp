#include "workload/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

namespace repro::workload {

float ApRun::utilization_at(Minute t) const noexcept {
  if (t < start || t >= end) return 0.0f;
  // Slow sinusoidal phase structure within the run (compute/IO alternation)
  // keeps consecutive-minute temperature diffs informative.
  const double wave =
      std::sin(2.0 * std::numbers::pi *
                   (static_cast<double>(t - start) / util_period_min) +
               util_phase);
  const double u = util_level * (0.88 + 0.12 * wave);
  return static_cast<float>(std::clamp(u, 0.0, 1.0));
}

Scheduler::Scheduler(const topo::Topology& topology, const AppCatalog& catalog,
                     const SchedulerParams& params, Rng rng)
    : topology_(topology),
      catalog_(catalog),
      params_(params),
      rng_(rng),
      busy_(static_cast<std::size_t>(topology.total_nodes()), 0) {
  REPRO_CHECK(params_.jobs_per_hour > 0.0);
  REPRO_CHECK(params_.apruns_per_job_mean >= 1.0);
}

double Scheduler::occupancy() const noexcept {
  return static_cast<double>(busy_count_) /
         static_cast<double>(busy_.size());
}

std::optional<std::vector<topo::NodeId>> Scheduler::allocate(
    std::int32_t count) {
  const auto total = static_cast<std::int32_t>(busy_.size());
  if (count > total - busy_count_) return std::nullopt;
  // First fit starting from a random cabinet boundary: allocations are
  // mostly contiguous (slot/cage locality) yet land all over the machine.
  const std::int32_t per_cab = topology_.config().nodes_per_cabinet();
  const auto start = static_cast<std::int32_t>(
      rng_.uniform_index(static_cast<std::uint64_t>(topology_.config().cabinets())) *
      static_cast<std::uint64_t>(per_cab));
  std::vector<topo::NodeId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < total && std::cmp_less(out.size(), count); ++i) {
    const std::int32_t n = (start + i) % total;
    if (!busy_[static_cast<std::size_t>(n)]) out.push_back(n);
  }
  if (std::cmp_less(out.size(), count)) return std::nullopt;
  std::sort(out.begin(), out.end());
  for (const auto n : out) {
    busy_[static_cast<std::size_t>(n)] = 1;
    ++busy_count_;
  }
  return out;
}

void Scheduler::release(const std::vector<topo::NodeId>& nodes) {
  for (const auto n : nodes) {
    auto& b = busy_.at(static_cast<std::size_t>(n));
    REPRO_CHECK_MSG(b, "releasing idle node " << n);
    b = 0;
    --busy_count_;
  }
}

void Scheduler::admit_jobs(Minute now) {
  if (occupancy() >= params_.target_occupancy) return;
  const double jobs_per_min = params_.jobs_per_hour / 60.0;
  const std::uint64_t arrivals = rng_.poisson(jobs_per_min);
  for (std::uint64_t j = 0; j < arrivals; ++j) {
    const JobId job = next_job_id_++;
    const auto user = static_cast<UserId>(
        rng_.uniform_index(static_cast<std::uint64_t>(params_.num_users)));
    // Geometric number of apruns with the configured mean (>= 1).
    const double p = 1.0 / params_.apruns_per_job_mean;
    std::int32_t apruns = 1;
    while (apruns < 8 && !rng_.bernoulli(p)) ++apruns;

    for (std::int32_t a = 0; a < apruns; ++a) {
      const AppId app = catalog_.sample(rng_);
      const ApplicationSpec& spec = catalog_.spec(app);
      const double span = std::log(
          static_cast<double>(spec.max_nodes) /
          static_cast<double>(spec.min_nodes) + 1e-9);
      const auto want = static_cast<std::int32_t>(
          static_cast<double>(spec.min_nodes) *
          std::exp(rng_.uniform(0.0, std::max(0.0, span))));
      auto nodes = allocate(std::clamp(want, spec.min_nodes, spec.max_nodes));
      if (!nodes) continue;  // machine full; drop (no queue in this model)

      ApRun run;
      run.id = next_run_id_++;
      run.job = job;
      run.user = user;
      run.app = app;
      run.start = now;
      const double runtime = std::clamp(
          spec.median_runtime_min * std::exp(rng_.normal(0.0, spec.runtime_sigma)),
          5.0, 48.0 * 60.0);
      run.end = now + static_cast<Minute>(std::llround(runtime));
      run.nodes = std::move(*nodes);
      run.util_level =
          std::clamp(spec.util_mean + rng_.normal(0.0, spec.util_jitter),
                     0.05, 1.0);
      run.mem_per_node_gb = std::clamp(
          spec.mem_mean_gb * std::exp(rng_.normal(0.0, spec.mem_sigma)),
          0.05, 5.6);
      run.util_phase = rng_.uniform(0.0, 2.0 * std::numbers::pi);
      run.util_period_min = rng_.uniform(30.0, 120.0);
      active_.push_back(std::move(run));
    }
  }
}

std::vector<ApRun> Scheduler::step(Minute now) {
  std::vector<ApRun> completed;
  for (std::size_t i = 0; i < active_.size();) {
    if (active_[i].end <= now) {
      release(active_[i].nodes);
      completed.push_back(std::move(active_[i]));
      active_[i] = std::move(active_.back());
      active_.pop_back();
    } else {
      ++i;
    }
  }
  admit_jobs(now);
  return completed;
}

}  // namespace repro::workload
