#include "telemetry/thermal_model.hpp"

#include <cmath>
#include <numbers>

namespace repro::telemetry {

ThermalModel::ThermalModel(const topo::Topology& topology,
                           const ThermalParams& params, Rng rng)
    : topology_(topology),
      params_(params),
      rng_(rng),
      nodes_per_slot_(topology.config().nodes_per_slot) {
  const auto n = static_cast<std::size_t>(topology_.total_nodes());
  const auto& cfg = topology_.config();

  // Cabinet-level cooling lottery: some cabinets simply run warmer.
  std::vector<float> cabinet_offset(static_cast<std::size_t>(cfg.cabinets()));
  Rng cab_rng = rng_.fork(0xCAB);
  for (auto& o : cabinet_offset) {
    o = static_cast<float>(cab_rng.normal(0.0, params_.cabinet_cooling_std_c));
  }

  ambient_.resize(n);
  efficiency_.resize(n);
  readings_.resize(n);

  // Per-node noise streams for advance(): forked up front so the per-minute
  // loop never shares an Rng across threads.
  Rng noise_root = rng_.fork(0x5EED);
  node_noise_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    node_noise_.push_back(noise_root.fork(i));
  }

  Rng node_rng = rng_.fork(0x40DE);
  const double gx = cfg.grid_x - 1;
  const double gy = cfg.grid_y - 1;
  const double corner_sigma =
      std::max(1.0, params_.corner_sigma_frac * std::hypot(gx + 1.0, gy + 1.0));
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<topo::NodeId>(i);
    const auto addr = topology_.address_of(id);
    // Hot corners: upper-left (0, gy) and lower-right (gx, 0).
    const double dul = std::hypot(static_cast<double>(addr.cab_x) - 0.0,
                                  static_cast<double>(addr.cab_y) - gy);
    const double dlr = std::hypot(static_cast<double>(addr.cab_x) - gx,
                                  static_cast<double>(addr.cab_y) - 0.0);
    const double s2 = 2.0 * corner_sigma * corner_sigma;
    const double bump = params_.corner_bump_c *
                        (std::exp(-dul * dul / s2) + std::exp(-dlr * dlr / s2));
    ambient_[i] = static_cast<float>(
        params_.ambient_base_c + bump +
        cabinet_offset[static_cast<std::size_t>(topology_.cabinet_of(id))]);
    efficiency_[i] = static_cast<float>(
        1.0 + node_rng.normal(0.0, params_.node_efficiency_std));

    // Start at idle equilibrium so the first minutes are not a transient.
    readings_[i].gpu_temp =
        ambient_[i] + static_cast<float>(params_.idle_offset_c);
    readings_[i].cpu_temp =
        ambient_[i] + static_cast<float>(params_.cpu_idle_offset_c);
    readings_[i].gpu_power = static_cast<float>(params_.idle_power_w);
  }
}

void ThermalModel::advance(std::size_t begin, std::size_t end, Minute now,
                           const std::vector<float>& utilization) {
  const auto nps = static_cast<std::size_t>(nodes_per_slot_);
  REPRO_CHECK_MSG(utilization.size() == readings_.size(),
                  "utilization vector size mismatch");
  REPRO_CHECK_MSG(begin % nps == 0 && end % nps == 0 && end <= readings_.size(),
                  "advance needs whole slots");
  const double diurnal = params_.diurnal_amp_c *
                         std::sin(2.0 * std::numbers::pi *
                                  static_cast<double>(minute_of_day(now)) /
                                  static_cast<double>(kMinutesPerDay));
  for (std::size_t slot = begin; slot < end; slot += nps) {
    // Slot-mean utilization from this minute (drives neighbor coupling).
    float load = 0.0f;
    for (std::size_t k = 0; k < nps; ++k) load += utilization[slot + k];
    const double slot_u = load / static_cast<float>(nps);

    for (std::size_t i = slot; i < slot + nps; ++i) {
      Reading& r = readings_[i];
      Rng& noise = node_noise_[i];
      const double u = utilization[i];

      const double target = ambient_[i] + diurnal + params_.idle_offset_c +
                            params_.load_gain_c * u +
                            params_.neighbor_gain_c * slot_u;
      const double gap = target - r.gpu_temp;
      const double rate = gap > 0.0 ? params_.heat_rate : params_.cool_rate;
      r.gpu_temp = static_cast<float>(
          r.gpu_temp + rate * gap + params_.temp_noise_c * noise.fast_normal());

      const double cpu_target = ambient_[i] + diurnal +
                                params_.cpu_idle_offset_c +
                                params_.cpu_load_gain_c * u;
      const double cpu_gap = cpu_target - r.cpu_temp;
      r.cpu_temp = static_cast<float>(
          r.cpu_temp + params_.cpu_rate * cpu_gap +
          params_.cpu_noise_c * noise.fast_normal());

      // Power responds essentially instantaneously to load.
      const double p = params_.idle_power_w +
                       params_.dynamic_power_w * u * efficiency_[i] +
                       params_.leakage_w_per_c * (r.gpu_temp - 30.0) +
                       params_.power_noise_w * noise.fast_normal();
      r.gpu_power = static_cast<float>(p < 0.0 ? 0.0 : p);
    }
  }
}

double ThermalModel::ambient_of(topo::NodeId node) const {
  return ambient_.at(static_cast<std::size_t>(node));
}

}  // namespace repro::telemetry
