#include "sim/simulator.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::sim {

namespace {
/// Nodes per chunk of a block's node pass, rounded up to whole cages: a
/// probe's cage average reads its cage peers at the same minute. About 50
/// chunks on the scaled Titan, so 4 threads get even shares.
constexpr std::size_t kNodeGrain = 32;
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
      sbe_(static_cast<std::size_t>(topology_.total_nodes()), 0),
      expected_(static_cast<std::size_t>(topology_.total_nodes()), 0.0) {
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

void Simulator::snapshot_pre_run(NodeRunState& ns) const {
  // Pre-run windows are snapshotted from telemetry recorded up to the
  // minute BEFORE the run starts — exactly what a deployed predictor
  // could observe at submission time.
  const topo::NodeId node = ns.node;
  for (std::size_t w = 0; w < kPreWindowsMin.size(); ++w) {
    ns.pre_temp[w] = store_.window_stats(node, telemetry::Channel::kGpuTemp,
                                         kPreWindowsMin[w]);
    ns.pre_power[w] = store_.window_stats(node, telemetry::Channel::kGpuPower,
                                          kPreWindowsMin[w]);
  }
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
}

void Simulator::finish_run(RunState& rs) {
  const workload::ApRun& run = rs.run;
  for (NodeRunState& ns : rs.nodes) {
    const auto ni = static_cast<std::size_t>(ns.node);
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
    s.sbe_count = sbe_[ni];
    s.expected_sbe = static_cast<float>(expected_[ni]);
    trace_.samples.push_back(s);

    auto& hists = trace_.period_hists[ni];
    if (s.sbe_count > 0) {
      hists.temp_affected.merge(ns.temp_hist);
      hists.power_affected.merge(ns.power_hist);
      faults::SbeEvent ev;
      ev.run = run.id;
      ev.app = run.app;
      ev.node = ns.node;
      ev.start = run.start;
      ev.end = run.end;
      ev.count = s.sbe_count;
      trace_.sbe_log.add(ev);
      last_sbe_minute_[ni] = run.end;
    } else {
      hists.temp_free.merge(ns.temp_hist);
      hists.power_free.merge(ns.power_hist);
    }
  }
}

void Simulator::schedule_block(Block& block) {
  OBS_SPAN("sim.prepass");
  const auto n = current_.size();
  for (Minute m = 0; m < block.minutes; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    block.completed[mi] = scheduler_.step(block.start + m);
    for (const auto& run : block.completed[mi]) {
      for (const auto node : run.nodes) {
        current_[static_cast<std::size_t>(node)] = {};
      }
    }
    // Newly admitted runs (ids we have not seen yet), in id order.
    for (const auto& run : scheduler_.active_runs()) {
      if (run.id < seen_runs_) continue;
      RunState& rs =
          *block.admitted[mi].emplace_back(std::make_unique<RunState>());
      rs.run = run;
      rs.nodes.resize(run.nodes.size());
      for (std::size_t k = 0; k < run.nodes.size(); ++k) {
        NodeRunState& ns = rs.nodes[k];
        ns.node = run.nodes[k];
        ns.app = run.app;
        ns.luck = sbe_model_.run_luck(run.id, ns.node);
        auto& last = last_app_[static_cast<std::size_t>(ns.node)];
        ns.prev_app = last;
        last = run.app;
        Occupant& occ = current_[static_cast<std::size_t>(ns.node)];
        REPRO_CHECK_MSG(occ.ns == nullptr,
                        "node " << ns.node << " runs two apruns");
        occ = {&rs, &ns};
      }
    }
    seen_runs_ = scheduler_.runs_started();
    std::copy_n(current_.begin(), n, occupants_.begin() + mi * n);
  }
}

void Simulator::update_nodes(Block& block, std::size_t begin,
                             std::size_t end) {
  const auto n = utilization_.size();
  const auto nps =
      static_cast<std::size_t>(topology_.config().nodes_per_slot);
  const float peers = static_cast<float>(nps) - 1.0f;
  const auto& readings = thermal_.readings();

  for (Minute m = 0; m < block.minutes; ++m) {
    const Minute t = block.start + m;
    const Occupant* row = occupants_.data() + static_cast<std::size_t>(m) * n;
    faults::SbeModel::MinuteRates* rates =
        block.rates.data() + static_cast<std::size_t>(m) * n;

    // Utilization from each node's run (nodes of one run are mostly
    // adjacent, so one evaluation serves a stretch of them). A run that
    // starts this minute first snapshots the node's telemetry so far.
    const RunState* last_rs = nullptr;
    float u = 0.0f;
    for (std::size_t i = begin; i < end; ++i) {
      const Occupant& occ = row[i];
      if (occ.rs == nullptr) {
        utilization_[i] = 0.0f;
        continue;
      }
      if (occ.rs != last_rs) {
        last_rs = occ.rs;
        u = occ.rs->run.utilization_at(t);
      }
      if (occ.rs->run.start == t) snapshot_pre_run(*occ.ns);
      utilization_[i] = u;
    }
    thermal_.advance(begin, end, t, utilization_);

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
    for (std::size_t i = begin; i < end; ++i) {
      const telemetry::Reading& r = readings[i];
      store_.record(static_cast<topo::NodeId>(i), r);
      // Idle minutes belong to the node's SBE-free period (Figs 6-7: the
      // "SBE-free period" is all time without errors, busy or not;
      // SBE-affected minutes are attributed when their run completes).
      if (utilization_[i] <= 0.0f) {
        idle_temp_[i].add(r.gpu_temp);
        idle_power_[i].add(r.gpu_power);
      }

      NodeRunState* ns = row[i].ns;
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

      const auto rate = sbe_model_.minute_rates(ns->node, ns->app, r, t);
      rates[i] = {ns->luck * rate.quiet, ns->luck * rate.recent};
    }

    // Probes (full-resolution series for Fig 8) of this chunk's nodes.
    for (ProbeSeries& ps : trace_.probes) {
      const auto ni = static_cast<std::size_t>(ps.node);
      if (ni < begin || ni >= end) continue;
      const telemetry::Reading& r = readings[ni];
      ps.gpu_temp.push_back(r.gpu_temp);
      ps.gpu_power.push_back(r.gpu_power);
      ps.cpu_temp.push_back(r.cpu_temp);
      const std::size_t slot = ni / nps;
      if (peers > 0.0f) {
        ps.slot_avg_temp.push_back((slot_temp_sum_[slot] - r.gpu_temp) /
                                   peers);
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
  }
}

void Simulator::replay_block(Block& block) {
  OBS_SPAN("sim.replay");
  const auto n = utilization_.size();
  for (Minute m = 0; m < block.minutes; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    const Minute t = block.start + m;
    for (const auto& run : block.completed[mi]) {
      auto it = active_.find(run.id);
      REPRO_CHECK_MSG(it != active_.end(), "completed unknown run " << run.id);
      finish_run(*it->second);
      active_.erase(it);
    }
    for (auto& rs : block.admitted[mi]) {
      const workload::RunId id = rs->run.id;
      for (const auto node : rs->run.nodes) {
        sbe_[static_cast<std::size_t>(node)] = 0;
        expected_[static_cast<std::size_t>(node)] = 0.0;
      }
      const bool inserted = active_.emplace(id, std::move(rs)).second;
      REPRO_CHECK_MSG(inserted, "run " << id << " started twice");
    }
    block.admitted[mi].clear();

    // Fault draws. Serial by design: every draw consumes the simulator's
    // single rng_ stream, and that sequence (active_'s iteration order, then
    // each run's node order) is part of the trace's deterministic definition.
    // The draws run on a local copy of the stream, which the compiler can
    // keep in registers.
    const faults::SbeModel::MinuteRates* rates = block.rates.data() + mi * n;
    Rng rng = rng_;
    for (const auto& [run_id, rs] : active_) {
      const workload::AppId app = rs->run.app;
      for (const topo::NodeId node : rs->run.nodes) {
        const auto ni = static_cast<std::size_t>(node);
        const Minute last_sbe = last_sbe_minute_[ni];
        const bool recent = last_sbe >= 0 && t - last_sbe < kMinutesPerDay;
        const double lambda = recent ? rates[ni].recent : rates[ni].quiet;
        expected_[ni] += lambda;
        const std::uint32_t events = faults::SbeModel::draw(lambda, rng);
        for (std::uint32_t e = 0; e < events; ++e) {
          sbe_[ni] += sbe_model_.burst_size(app, rng);
        }
      }
    }
    rng_ = rng;
  }
}

void Simulator::run_for(Minute minutes) {
  const auto n = utilization_.size();
  if (current_.empty()) {
    current_.resize(n);
    occupants_.resize(static_cast<std::size_t>(kBlockMinutes) * n);
    for (Block& block : blocks_) block.rates.resize(occupants_.size());
    // Empty copies of the SBE-free histograms: the same bins.
    idle_temp_.assign(n, trace_.period_hists.front().temp_free);
    idle_power_.assign(n, trace_.period_hists.front().power_free);
  }
  // Chunks hold whole cages and their size depends on the machine only,
  // never on the thread count.
  const auto cage = static_cast<std::size_t>(
      topology_.config().slots_per_cage * topology_.config().nodes_per_slot);
  const std::size_t grain = (kNodeGrain + cage - 1) / cage * cage;
  const std::size_t chunks = chunk_count(n, grain);

  Block* replaying = nullptr;
  for (std::size_t b = 0; minutes > 0; b ^= 1) {
    Block& block = blocks_[b];
    block.start = now_;
    block.minutes = std::min(minutes, kBlockMinutes);
    OBS_COUNT("sim.blocks");
    schedule_block(block);
    {
      // Chunk 0 replays the previous block, whose state no node chunk
      // touches; the last block is replayed after the loop.
      OBS_SPAN("sim.nodes");
      parallel_for(chunks + 1, 1, [&](std::size_t c, std::size_t) {
        if (c > 0) {
          update_nodes(block, (c - 1) * grain, std::min(c * grain, n));
        } else if (replaying != nullptr) {
          replay_block(*replaying);
        }
      });
    }
    replaying = &block;
    now_ += block.minutes;
    minutes -= block.minutes;
  }
  if (replaying != nullptr) replay_block(*replaying);

  // No replay runs now, so the idle minutes can join the SBE-free bins.
  for (std::size_t i = 0; i < n; ++i) {
    trace_.period_hists[i].temp_free.merge(idle_temp_[i]);
    trace_.period_hists[i].power_free.merge(idle_power_[i]);
    idle_temp_[i].clear();
    idle_power_[i].clear();
  }
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
