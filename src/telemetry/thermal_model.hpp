// Physical model generating per-node, per-minute GPU temperature, GPU power
// and CPU temperature. This is the substitute for Titan's out-of-band
// telemetry (closed data); it is built to reproduce the *structure* the
// paper observes:
//
//  - Fig 5a: cumulative temperature is spatially non-uniform, with hot
//    regions near the upper-left and lower-right corners of the 25x8
//    cabinet grid (modeled as ambient bumps + per-cabinet cooling
//    efficiency variation).
//  - Fig 5b: cumulative power is comparatively flat in space (power is
//    driven by workload, which the scheduler spreads out).
//  - Fig 8: the same application run twice on the same node shows a
//    different temperature profile, because slot neighbors' load couples
//    into the node and cooling drifts (AR(1) noise + neighbor coupling).
//
// The model is a first-order thermal relaxation per node:
//   T[t+1] = T[t] + k(T) * (T_target - T[t]) + noise
//   T_target = ambient(x, y, cabinet) + diurnal(t)
//              + load_gain * u + neighbor_gain * slot_load
// with asymmetric heating/cooling rates, and power
//   P = idle + dynamic * u * eff + leakage * (T - T_ref) + noise.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "telemetry/store.hpp"
#include "topology/topology.hpp"

namespace repro::telemetry {

struct ThermalParams {
  // Ambient field.
  double ambient_base_c = 24.0;       ///< floor ambient, deg C
  double corner_bump_c = 5.0;         ///< amplitude of hot-corner bumps
  double corner_sigma_frac = 0.20;    ///< bump extent as fraction of the
                                      ///< floor-grid diagonal (scale-free)
  double cabinet_cooling_std_c = 1.0; ///< per-cabinet cooling lottery

  // GPU thermal response.
  double idle_offset_c = 4.0;         ///< idle GPU sits above ambient
  double load_gain_c = 22.0;          ///< deg C added at full utilization
  double neighbor_gain_c = 6.0;       ///< deg C from fully-loaded slot peers
  double heat_rate = 0.20;            ///< per-minute relaxation when heating
  double cool_rate = 0.07;            ///< per-minute relaxation when cooling
  double diurnal_amp_c = 1.2;         ///< day/night ambient swing
  double temp_noise_c = 0.35;         ///< per-minute AR noise, deg C

  // CPU thermal response (same node; correlated with GPU load).
  double cpu_idle_offset_c = 6.0;
  double cpu_load_gain_c = 16.0;
  double cpu_rate = 0.25;
  double cpu_noise_c = 0.5;

  // GPU power.
  double idle_power_w = 20.0;         ///< K20X idle draw
  double dynamic_power_w = 190.0;     ///< full-load dynamic draw
  double leakage_w_per_c = 0.25;      ///< temperature-dependent leakage
  double power_noise_w = 3.0;
  double node_efficiency_std = 0.04;  ///< per-node dynamic-power lottery
};

/// Simulates the machine's thermal/power state minute by minute.
///
/// Usage: once per simulated minute, fill the utilization vector (GPU busy
/// fraction per node, 0 when idle) and call advance() over every node, in
/// one call or in disjoint whole-slot ranges; then read out readings() and
/// feed them to TelemetryStore / the fault model. The simulator advances
/// whole cages inside its own per-block parallel region, so one region
/// covers the thermal model and the rest of the node pass.
class ThermalModel {
 public:
  ThermalModel(const topo::Topology& topology, const ThermalParams& params,
               Rng rng);

  /// Advances nodes [begin, end), a whole number of slots, to minute `now`
  /// under `utilization` (indexed by node, in [0,1]; only [begin, end) is
  /// read). Slots are independent (each node owns its reading and noise
  /// stream, and neighbor coupling stays within a slot), so disjoint ranges
  /// may run concurrently in any order with a result bitwise-identical to
  /// one call over every node.
  void advance(std::size_t begin, std::size_t end, Minute now,
               const std::vector<float>& utilization);

  /// Current reading of every node (the idle equilibrium before the first
  /// advance()).
  [[nodiscard]] const std::vector<Reading>& readings() const noexcept {
    return readings_;
  }

  /// Static ambient temperature (deg C) at a node, before diurnal/noise.
  [[nodiscard]] double ambient_of(topo::NodeId node) const;

  [[nodiscard]] const ThermalParams& params() const noexcept { return params_; }

 private:
  const topo::Topology& topology_;
  ThermalParams params_;
  Rng rng_;

  // One pre-split noise stream per node: the per-minute loop can then run
  // across threads with a bitwise-identical draw sequence per node,
  // independent of scheduling (see common/parallel.hpp, rule 3).
  std::vector<Rng> node_noise_;
  std::vector<float> ambient_;        // per node, includes cabinet lottery
  std::vector<float> efficiency_;     // per node power efficiency multiplier
  std::vector<Reading> readings_;     // current state (also the output)
  std::int32_t nodes_per_slot_;
};

}  // namespace repro::telemetry
