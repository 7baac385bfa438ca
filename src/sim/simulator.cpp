#include "sim/simulator.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::sim {

namespace {
/// Nodes per chunk of the per-minute region (rounded up to whole slots).
constexpr std::size_t kNodeGrain = 128;
}  // namespace

SimConfig SimConfig::testing(std::int64_t test_days, std::uint64_t test_seed) {
  SimConfig c;
  c.system = topo::SystemConfig::tiny();
  c.days = test_days;
  c.seed = test_seed;
  c.catalog.num_apps = 40;
  c.scheduler.jobs_per_hour = 6.0;
  return c;
}

Simulator::Simulator(const SimConfig& config)
    : config_(config),
      topology_(config.system),
      rng_(config.seed),
      catalog_(workload::AppCatalog::generate(config.catalog, rng_.fork(1))),
      scheduler_(topology_, catalog_, config.scheduler, rng_.fork(2)),
      thermal_(topology_, config.thermal, rng_.fork(3)),
      store_(topology_.total_nodes()),
      sbe_model_(topology_, catalog_, config.faults, rng_.fork(4)),
      trace_(config.system, catalog_,
             static_cast<std::int32_t>(catalog_.size())),
      utilization_(static_cast<std::size_t>(topology_.total_nodes()), 0.0f),
      last_app_(static_cast<std::size_t>(topology_.total_nodes()), -1),
      last_sbe_minute_(static_cast<std::size_t>(topology_.total_nodes()), -1),
      busy_(static_cast<std::size_t>(topology_.total_nodes()), nullptr),
      lambda_(static_cast<std::size_t>(topology_.total_nodes()), 0.0) {
  REPRO_CHECK(config.days > 0);
  trace_.duration = config.days * kMinutesPerDay;
  const auto slots = static_cast<std::size_t>(topology_.total_nodes()) /
                     static_cast<std::size_t>(config.system.nodes_per_slot);
  slot_temp_sum_.assign(slots, 0.0f);
  slot_power_sum_.assign(slots, 0.0f);
  for (const auto probe : config.probe_nodes) {
    REPRO_CHECK(probe >= 0 && probe < topology_.total_nodes());
    ProbeSeries ps;
    ps.node = probe;
    trace_.probes.push_back(std::move(ps));
  }
}

void Simulator::begin_run(const workload::ApRun& run) {
  RunState rs;
  rs.run = run;
  rs.nodes.reserve(run.nodes.size());
  for (const auto node : run.nodes) {
    NodeRunState ns;
    ns.node = node;
    // Pre-run windows are snapshotted from telemetry recorded up to the
    // minute BEFORE the run starts — exactly what a deployed predictor
    // could observe at submission time.
    for (std::size_t w = 0; w < kPreWindowsMin.size(); ++w) {
      ns.pre_temp[w] = store_.window_stats(node, telemetry::Channel::kGpuTemp,
                                           kPreWindowsMin[w]);
      ns.pre_power[w] = store_.window_stats(
          node, telemetry::Channel::kGpuPower, kPreWindowsMin[w]);
    }
    ns.app = run.app;
    ns.luck = sbe_model_.run_luck(run.id, node);
    // Raw pre-run telemetry tail (oldest first) for the approach-2
    // feature forecaster (Sec. VI-A / VIII).
    const std::size_t have = std::min<std::size_t>(
        RunNodeSample::kRecentMinutes, store_.history_size(node));
    for (std::size_t i = 0; i < have; ++i) {
      const std::size_t age = have - 1 - i;
      ns.recent_temp[i] =
          store_.history_at(node, telemetry::Channel::kGpuTemp, age);
      ns.recent_power[i] =
          store_.history_at(node, telemetry::Channel::kGpuPower, age);
    }
    ns.recent_len = static_cast<std::uint8_t>(have);
    auto& last = last_app_[static_cast<std::size_t>(node)];
    ns.prev_app = last;
    last = run.app;
    rs.nodes.push_back(std::move(ns));
  }
  auto [it, inserted] = active_.emplace(run.id, std::move(rs));
  REPRO_CHECK_MSG(inserted, "run " << run.id << " started twice");
  for (NodeRunState& ns : it->second.nodes) {
    NodeRunState*& slot = busy_[static_cast<std::size_t>(ns.node)];
    REPRO_CHECK_MSG(slot == nullptr, "node " << ns.node << " runs two apruns");
    slot = &ns;
  }
}

void Simulator::finish_run(RunState& rs) {
  const workload::ApRun& run = rs.run;
  for (NodeRunState& ns : rs.nodes) {
    busy_[static_cast<std::size_t>(ns.node)] = nullptr;
    RunNodeSample s;
    s.run = run.id;
    s.app = run.app;
    s.prev_app = ns.prev_app;
    s.node = ns.node;
    s.start = run.start;
    s.end = run.end;
    s.runtime_min = static_cast<float>(run.runtime_min());
    s.num_nodes = static_cast<float>(run.nodes.size());
    s.gpu_core_hours = static_cast<float>(run.gpu_core_hours());
    s.total_mem_gb = static_cast<float>(run.total_mem_gb());
    s.max_mem_gb = static_cast<float>(run.mem_per_node_gb);
    s.run_gpu_temp = ns.gpu_temp.stats();
    s.run_gpu_power = ns.gpu_power.stats();
    s.pre_gpu_temp = ns.pre_temp;
    s.pre_gpu_power = ns.pre_power;
    s.run_cpu_temp = ns.cpu_temp.stats();
    s.slot_gpu_temp = ns.slot_temp.stats();
    s.slot_gpu_power = ns.slot_power.stats();
    s.recent_gpu_temp = ns.recent_temp;
    s.recent_gpu_power = ns.recent_power;
    s.recent_len = ns.recent_len;
    s.sbe_count = ns.sbe;
    s.expected_sbe = static_cast<float>(ns.expected);
    trace_.samples.push_back(s);

    auto& hists = trace_.period_hists[static_cast<std::size_t>(ns.node)];
    if (ns.sbe > 0) {
      hists.temp_affected.merge(ns.temp_hist);
      hists.power_affected.merge(ns.power_hist);
      faults::SbeEvent ev;
      ev.run = run.id;
      ev.app = run.app;
      ev.node = ns.node;
      ev.start = run.start;
      ev.end = run.end;
      ev.count = ns.sbe;
      trace_.sbe_log.add(ev);
      last_sbe_minute_[static_cast<std::size_t>(ns.node)] = run.end;
    } else {
      hists.temp_free.merge(ns.temp_hist);
      hists.power_free.merge(ns.power_hist);
    }
  }
}

void Simulator::update_nodes(std::size_t begin, std::size_t end, Minute t) {
  thermal_.advance(begin, end);
  const auto& readings = thermal_.readings();
  const auto nps =
      static_cast<std::size_t>(topology_.config().nodes_per_slot);

  // Slot sums for neighbor features. The chunk holds whole slots, and the
  // fixed per-slot summation order keeps the float sums exact.
  for (std::size_t s = begin / nps; s < end / nps; ++s) {
    float ts = 0.0f, ps = 0.0f;
    for (std::size_t k = 0; k < nps; ++k) {
      ts += readings[s * nps + k].gpu_temp;
      ps += readings[s * nps + k].gpu_power;
    }
    slot_temp_sum_[s] = ts;
    slot_power_sum_[s] = ps;
  }

  // Everything below touches one node's state only and draws no random
  // numbers, so it runs on any thread without changing a result.
  const float peers = static_cast<float>(nps) - 1.0f;
  for (std::size_t i = begin; i < end; ++i) {
    const telemetry::Reading& r = readings[i];
    store_.record(static_cast<topo::NodeId>(i), r);
    // Idle minutes belong to the node's SBE-free period (Figs 6-7: the
    // "SBE-free period" is all time without errors, busy or not;
    // SBE-affected minutes are attributed when their run completes).
    if (utilization_[i] <= 0.0f) {
      auto& hists = trace_.period_hists[i];
      hists.temp_free.add(r.gpu_temp);
      hists.power_free.add(r.gpu_power);
    }

    NodeRunState* ns = busy_[i];
    if (ns == nullptr) continue;
    ns->gpu_temp.add(r.gpu_temp);
    ns->gpu_power.add(r.gpu_power);
    ns->cpu_temp.add(r.cpu_temp);
    const std::size_t slot = i / nps;
    if (peers > 0.0f) {
      ns->slot_temp.add((slot_temp_sum_[slot] - r.gpu_temp) / peers);
      ns->slot_power.add((slot_power_sum_[slot] - r.gpu_power) / peers);
    }
    ns->temp_hist.add(r.gpu_temp);
    ns->power_hist.add(r.gpu_power);

    const Minute last_sbe = last_sbe_minute_[i];
    const bool recent = last_sbe >= 0 && t - last_sbe < kMinutesPerDay;
    const double lambda =
        ns->luck * sbe_model_.minute_rate(ns->node, ns->app, r, t, recent);
    ns->expected += lambda;
    lambda_[i] = lambda;
  }
}

void Simulator::step() {
  const Minute t = now_;

  // 1. Completions and admissions.
  auto completed = scheduler_.step(t);
  for (auto& run : completed) {
    auto it = active_.find(run.id);
    REPRO_CHECK_MSG(it != active_.end(), "completed unknown run " << run.id);
    finish_run(it->second);
    active_.erase(it);
  }
  // 2. Newly admitted runs (ids we have not seen yet).
  for (const auto& run : scheduler_.active_runs()) {
    if (run.id >= seen_runs_) begin_run(run);
  }
  seen_runs_ = scheduler_.runs_started();

  // 3. One parallel pass over the machine (see update_nodes). Chunks hold
  // whole slots (the slot sums need every node of a slot), and their size
  // depends on the machine only, never on the thread count.
  const auto nps =
      static_cast<std::size_t>(topology_.config().nodes_per_slot);
  scheduler_.fill_utilization(t, utilization_);
  thermal_.begin_step(t, utilization_);
  parallel_for(utilization_.size(), (kNodeGrain + nps - 1) / nps * nps,
               [&](std::size_t begin, std::size_t end) {
                 update_nodes(begin, end, t);
               });

  // 4. Fault draws. Serial by design: every draw consumes the simulator's
  // single rng_ stream, and that sequence (active_'s iteration order, then
  // each run's node order) is part of the trace's deterministic definition.
  // The loop reads only the dense per-node rates; a node's run state is
  // touched only on the rare minute that draws an event.
  for (const auto& [run_id, rs] : active_) {
    const workload::AppId app = rs.run.app;
    for (const topo::NodeId node : rs.run.nodes) {
      const auto ni = static_cast<std::size_t>(node);
      const std::uint32_t events = faults::SbeModel::draw(lambda_[ni], rng_);
      for (std::uint32_t e = 0; e < events; ++e) {
        busy_[ni]->sbe += sbe_model_.burst_size(app, rng_);
      }
    }
  }

  // 5. Probes (full-resolution series for Fig 8).
  const auto& readings = thermal_.readings();
  const float peers = static_cast<float>(nps) - 1.0f;
  for (ProbeSeries& ps : trace_.probes) {
    const auto ni = static_cast<std::size_t>(ps.node);
    const telemetry::Reading& r = readings[ni];
    ps.gpu_temp.push_back(r.gpu_temp);
    ps.gpu_power.push_back(r.gpu_power);
    ps.cpu_temp.push_back(r.cpu_temp);
    const std::size_t slot = ni / nps;
    if (peers > 0.0f) {
      ps.slot_avg_temp.push_back((slot_temp_sum_[slot] - r.gpu_temp) / peers);
      ps.slot_avg_power.push_back((slot_power_sum_[slot] - r.gpu_power) /
                                  peers);
    }
    // Cage average is a cold path; recompute directly.
    const auto cage_peers = topology_.cage_neighbors(ps.node);
    float sum = 0.0f;
    for (const auto peer : cage_peers) {
      sum += readings[static_cast<std::size_t>(peer)].gpu_temp;
    }
    ps.cage_avg_temp.push_back(
        cage_peers.empty() ? r.gpu_temp
                           : sum / static_cast<float>(cage_peers.size()));
  }

  ++now_;
}

void Simulator::run_for(Minute minutes) {
  for (Minute i = 0; i < minutes; ++i) step();
}

Trace Simulator::take_trace() && {
  const auto n = static_cast<std::size_t>(topology_.total_nodes());
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<topo::NodeId>(i);
    auto& cum = trace_.cumulative[i];
    cum.gpu_temp = store_.cumulative(id, telemetry::Channel::kGpuTemp);
    cum.gpu_power = store_.cumulative(id, telemetry::Channel::kGpuPower);
    cum.cpu_temp = store_.cumulative(id, telemetry::Channel::kCpuTemp);
  }
  return std::move(trace_);
}

Trace simulate(const SimConfig& config) {
  OBS_SPAN("sim.simulate");
  Simulator sim(config);
  sim.run_for(config.days * kMinutesPerDay);
  return std::move(sim).take_trace();
}

}  // namespace repro::sim
