// Application (aprun) catalog.
//
// The paper treats every distinct binary name as an application type and
// observes (Sec. III-B) a heavy-tailed mix: a small set of applications
// dominates both GPU usage and SBE counts, with per-type characteristic
// runtimes, node counts and GPU utilization. The catalog generates such a
// population: popularity is Zipf-distributed, runtimes are lognormal, and
// utilization/memory levels are per-application constants with run-to-run
// jitter (HPC workloads are repetitive — Sec. VI-A).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace repro::workload {

using AppId = std::int32_t;

struct ApplicationSpec {
  std::string name;            ///< synthetic binary name, e.g. "app_0042"
  double median_runtime_min;   ///< lognormal median of aprun runtime
  double runtime_sigma;        ///< lognormal sigma of runtime
  double util_mean;            ///< typical GPU busy fraction in [0.15, 1]
  double util_jitter;          ///< run-to-run std of the busy fraction
  double mem_mean_gb;          ///< typical per-node GPU memory footprint
  double mem_sigma;            ///< lognormal sigma of the footprint
  std::int32_t min_nodes;      ///< smallest allocation this app requests
  std::int32_t max_nodes;      ///< largest allocation this app requests
};

struct CatalogParams {
  std::size_t num_apps = 400;
  double popularity_exponent = 1.1;  ///< Zipf exponent over app ranks
  double median_runtime_min = 150.0; ///< population median runtime
  double runtime_spread = 0.9;       ///< lognormal sigma across apps
  std::int32_t max_nodes_cap = 64;   ///< largest allocation in the machine
};

/// Read-only population of application types plus a popularity sampler.
class AppCatalog {
 public:
  static AppCatalog generate(const CatalogParams& params, Rng rng);

  [[nodiscard]] std::size_t size() const noexcept { return apps_.size(); }
  [[nodiscard]] const ApplicationSpec& spec(AppId id) const;

  /// Draws an application id with Zipf popularity.
  [[nodiscard]] AppId sample(Rng& rng) const;

  /// P(app = id) under the popularity distribution.
  [[nodiscard]] double popularity(AppId id) const;

 private:
  AppCatalog(std::vector<ApplicationSpec> apps, ZipfSampler sampler)
      : apps_(std::move(apps)), sampler_(std::move(sampler)) {}

  std::vector<ApplicationSpec> apps_;
  ZipfSampler sampler_;
};

}  // namespace repro::workload
