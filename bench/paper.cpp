// The paper driver: one row per reproduced figure, table or ablation
// (DESIGN.md experiment index), all rendered from the cached 102-day paper
// trace.
//
//   paper                  every row, in DESIGN.md order
//   paper fig10 table2     only the named rows, in the order given
//
// Rows that print model quality read TwoStage fits from one FitMemo, so a
// (split, config) pair is trained once per run however many rows view it.
// Table III and the TwoStage ablation compare training cost and keep their
// own timed fits; the GBDT ablation varies parameters TwoStageConfig does
// not express and builds its models by hand.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "analysis/characterization.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/baselines.hpp"
#include "core/evaluation.hpp"
#include "core/sample_index.hpp"
#include "core/two_stage.hpp"
#include "features/features.hpp"
#include "ml/gbdt.hpp"
#include "ml/model.hpp"
#include "obs/obs.hpp"
#include "support/bench_common.hpp"
#include "support/fit_memo.hpp"

namespace {

using namespace repro;
using bench::FitMemo;

/// The default TwoStage config with the given stage-2 model and features.
core::TwoStageConfig two_stage(ml::ModelKind model,
                               features::FeatureMask mask =
                                   features::kAllFeatures) {
  core::TwoStageConfig config;
  config.model = model;
  config.features.mask = mask;
  return config;
}

ml::ClassMetrics basic_a_metrics(const sim::Trace& trace,
                                 const core::SplitSpec& split) {
  const auto idx = core::samples_in(trace, split.test);
  core::BasicScheme basic_a(core::BasicKind::kBasicA);
  basic_a.train(trace, split.train);
  return core::evaluate_predictions(trace, idx, basic_a.predict(trace, idx));
}

// Fig 1: normalized count of SBE-offender nodes per cabinet on the 25x8
// floor grid — GPU errors are NOT uniformly distributed in space, and most
// offenders err on only a small fraction of days.
int fig01(const sim::Trace& trace, FitMemo&) {
  const analysis::Grid grid = analysis::offender_node_grid(trace);
  std::printf("Normalized offender-node count per cabinet (y rows top-down):\n%s\n",
              render_grid(grid, 2).c_str());
  std::printf("Shade map ('@' = most offender nodes):\n%s\n",
              render_grid_shades(grid).c_str());

  const auto mask = trace.sbe_log.offender_mask(0, trace.duration);
  int offenders = 0;
  for (const char c : mask) offenders += c;
  double nonzero_cabs = 0.0, total_cabs = 0.0;
  for (const auto& row : grid) {
    for (const double v : row) {
      total_cabs += 1.0;
      if (v > 0.0) nonzero_cabs += 1.0;
    }
  }
  const double sparse = analysis::offender_day_concentration(trace, 0.2);
  std::printf("offender nodes: %d / %d (%.1f%%)\n", offenders,
              trace.total_nodes(),
              100.0 * offenders / trace.total_nodes());
  std::printf("cabinets with at least one offender: %.0f / %.0f\n",
              nonzero_cabs, total_cabs);
  std::printf(
      "offenders erring on < 20%% of days: %.0f%%  (paper: ~80%%)\n",
      100.0 * sparse);
  return 0;
}

// Fig 2: normalized count of SBE-affected application runs per cabinet —
// like the offender nodes, affected apruns cluster in space.
int fig02(const sim::Trace& trace, FitMemo&) {
  const analysis::Grid grid = analysis::affected_aprun_grid(trace);
  std::printf("Normalized SBE-affected sample count per cabinet:\n%s\n",
              render_grid(grid, 2).c_str());
  std::printf("Shade map ('@' = most affected apruns):\n%s\n",
              render_grid_shades(grid).c_str());

  std::size_t affected = 0;
  for (const auto& s : trace.samples) affected += s.sbe_affected() ? 1 : 0;
  std::printf("SBE-affected <aprun, node> samples: %zu / %zu (%.2f%%)\n",
              affected, trace.samples.size(),
              100.0 * trace.positive_rate());
  return 0;
}

// Fig 3: (a) a small set of applications holds most SBEs (top 20% of the
// affected apps hold > 90%); (b) even affected apps do not err on all of
// their executions.
int fig03(const sim::Trace& trace, FitMemo&) {
  const analysis::AppConcentration conc = analysis::app_concentration(trace);

  TextTable t({"app percentile", "cumulative SBE share", "affected-run fraction"});
  for (const double pct : {0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00}) {
    const auto k = static_cast<std::size_t>(
        pct * static_cast<double>(conc.ranked_apps.size()));
    const std::size_t idx = k == 0 ? 0 : k - 1;
    t.add_row(fmt(100.0 * pct, 0) + "%",
              {conc.cumulative_share[idx], conc.affected_run_fraction[idx]});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("affected applications: %zu / %zu\n", conc.ranked_apps.size(),
              trace.catalog.size());
  std::printf("share held by top 20%%: %.1f%%  (paper: >90%%)\n",
              100.0 * conc.share_of_top(0.2));
  return 0;
}

// Fig 4: rank correlation between SBE counts of affected applications and
// their GPU utilization — core-hours (paper: 0.89) and memory (0.70).
int fig04(const sim::Trace& trace, FitMemo&) {
  const analysis::UtilizationCorrelation corr =
      analysis::utilization_correlation(trace);

  TextTable t({"axis pair", "Spearman (measured)", "Spearman (paper)"});
  t.add_row({"SBE count vs GPU core-hours", fmt(corr.spearman_core_hours, 2), "0.89"});
  t.add_row({"SBE count vs GPU memory", fmt(corr.spearman_memory, 2), "0.70"});
  std::printf("%s\n", t.render().c_str());
  std::printf("affected applications in the scatter: %zu\n", corr.affected_apps);
  return 0;
}

// Fig 5: cumulative temperature is spatially non-uniform (hot upper-left /
// lower-right corners) while cumulative power is comparatively flat; and
// (Sec III-C1) neither locates the SBE offender nodes (Spearman ~0.07).
int fig05(const sim::Trace& trace, FitMemo&) {
  const analysis::Grid temp = analysis::cumulative_temp_grid(trace);
  const analysis::Grid power = analysis::cumulative_power_grid(trace);
  std::printf("(a) temperature, normalized to machine mean:\n%s\n",
              render_grid_shades(temp).c_str());
  std::printf("(b) power, normalized to machine mean:\n%s\n",
              render_grid_shades(power).c_str());

  auto spread = [](const analysis::Grid& g) {
    double mn = 1e18, mx = -1e18;
    for (const auto& row : g) {
      for (const double v : row) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
    }
    return mx - mn;
  };
  std::printf("normalized spread: temperature %.3f vs power %.3f\n",
              spread(temp), spread(power));
  const analysis::SpaceCorrelation corr = analysis::space_correlation(trace);
  TextTable t({"node-level Spearman", "measured", "paper"});
  t.add_row({"cumulative temp vs SBE count", fmt(corr.temp_vs_sbe_nodes, 2), "0.07"});
  t.add_row({"cumulative power vs SBE count", fmt(corr.power_vs_sbe_nodes, 2), "weak"});
  std::printf("%s", t.render().c_str());
  return 0;
}

// Fig 6: temperature distribution of offender nodes during SBE-free vs
// SBE-affected periods — affected periods are hotter by >3 degC on average.
int fig06(const sim::Trace& trace, FitMemo&) {
  const analysis::PeriodDistributions d =
      analysis::offender_period_distributions(trace);

  std::printf("(a) SBE-free periods    : avg=%.2f degC  std=%.2f  (paper: avg 31.7)\n",
              d.temp_free.mean(), d.temp_free.stddev());
  std::printf("%s\n", d.temp_free.render(16).c_str());
  std::printf("(b) SBE-affected periods: avg=%.2f degC  std=%.2f  (paper: avg 35.4)\n",
              d.temp_affected.mean(), d.temp_affected.stddev());
  std::printf("%s\n", d.temp_affected.render(16).c_str());
  std::printf("mean elevation in affected periods: %.2f degC  (paper: >3)\n",
              d.temp_affected.mean() - d.temp_free.mean());
  return 0;
}

// Fig 7: power distribution of offender nodes during SBE-free vs
// SBE-affected periods — affected periods draw >15 W more on average.
int fig07(const sim::Trace& trace, FitMemo&) {
  const analysis::PeriodDistributions d =
      analysis::offender_period_distributions(trace);

  std::printf("(a) SBE-free periods    : avg=%.1f W  std=%.1f  (paper: avg 55.8)\n",
              d.power_free.mean(), d.power_free.stddev());
  std::printf("%s\n", d.power_free.render(16).c_str());
  std::printf("(b) SBE-affected periods: avg=%.1f W  std=%.1f  (paper: avg 72.6)\n",
              d.power_affected.mean(), d.power_affected.stddev());
  std::printf("%s\n", d.power_affected.render(16).c_str());
  std::printf("mean elevation in affected periods: %.1f W  (paper: >15)\n",
              d.power_affected.mean() - d.power_free.mean());
  return 0;
}

void print_profile(const sim::ProbeSeries& probe,
                   const sim::RunNodeSample& s, Minute duration) {
  const Minute margin = 30;
  const Minute from = std::max<Minute>(0, s.start - margin);
  const Minute to = std::min<Minute>(duration, s.end + margin);
  TextTable t({"minute", "node_gpu_C", "node_cpu_C", "slot_avg_C",
               "cage_avg_C", "node_gpu_W", "slot_avg_W"});
  for (Minute m = from; m < to; m += std::max<Minute>(1, (to - from) / 24)) {
    const auto i = static_cast<std::size_t>(m);
    t.add_row(std::string(m == s.start ? ">" : (m == s.end ? "<" : "")) +
                  std::to_string(m - s.start),
              {probe.gpu_temp[i], probe.cpu_temp[i], probe.slot_avg_temp[i],
               probe.cage_avg_temp[i], probe.gpu_power[i],
               probe.slot_avg_power[i]},
              1);
  }
  std::printf("%s", t.render().c_str());
}

// Fig 8: the same application run twice on the same node shows different
// temperature/power profiles, shaped by slot neighbors and cooling drift.
// We find a probed node with two runs of the same app and print the two
// profiles (node GPU, node CPU, slot average) around the runs.
int fig08(const sim::Trace& trace, FitMemo&) {
  // Among all probed nodes, pick the same-app run pair whose temperature
  // profiles differ the most — the illustrative case the paper's Fig 8
  // shows (same binary, same node, visibly different thermal behaviour).
  const sim::ProbeSeries* best_probe = nullptr;
  const sim::RunNodeSample* best_a = nullptr;
  const sim::RunNodeSample* best_b = nullptr;
  float best_delta = -1.0f;
  for (const sim::ProbeSeries& probe : trace.probes) {
    std::vector<const sim::RunNodeSample*> runs;
    for (const auto& s : trace.samples) {
      if (s.node == probe.node && s.runtime_min >= 90.0f) runs.push_back(&s);
    }
    std::stable_sort(runs.begin(), runs.end(),
                     [](const auto* a, const auto* b) { return a->app < b->app; });
    for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
      if (runs[i]->app != runs[i + 1]->app) continue;
      const float delta = std::abs(runs[i]->run_gpu_temp.mean -
                                   runs[i + 1]->run_gpu_temp.mean);
      if (delta > best_delta) {
        best_delta = delta;
        best_probe = &probe;
        best_a = runs[i];
        best_b = runs[i + 1];
      }
    }
  }
  if (best_probe == nullptr) {
    std::printf("no probed node with two runs of the same app found; "
                "increase probe coverage\n");
    return 1;
  }
  const sim::ProbeSeries& probe = *best_probe;
  const auto& a = *best_a;
  const auto& b = *best_b;
  std::printf("node %d, application %s: runs at day %lld and day %lld\n\n",
              probe.node,
              trace.catalog.spec(a.app).name.c_str(),
              static_cast<long long>(day_of(a.start)),
              static_cast<long long>(day_of(b.start)));
  std::printf("--- first run (rows are minutes since run start; '>' start, '<' end) ---\n");
  print_profile(probe, a, trace.duration);
  std::printf("\n--- second run ---\n");
  print_profile(probe, b, trace.duration);
  std::printf(
      "\nrun-mean GPU temp: %.2f vs %.2f degC (delta %.2f); "
      "slot-neighbor mean temp: %.2f vs %.2f degC\n",
      a.run_gpu_temp.mean, b.run_gpu_temp.mean,
      a.run_gpu_temp.mean - b.run_gpu_temp.mean, a.slot_gpu_temp.mean,
      b.slot_gpu_temp.mean);
  return 0;
}

// Table I: precision and recall of the non-learning schemes (Random,
// Basic A/B/C) for the SBE and non-SBE classes on DS1.
int table1(const sim::Trace& trace, FitMemo& fits) {
  const core::SplitSpec& ds1 = fits.splits()[0];
  const auto idx = core::samples_in(trace, ds1.test);

  TextTable t({"Scheme", "SBE Precision", "SBE Recall", "non-SBE Precision",
               "non-SBE Recall"});
  for (const auto kind :
       {core::BasicKind::kRandom, core::BasicKind::kBasicA,
        core::BasicKind::kBasicB, core::BasicKind::kBasicC}) {
    core::BasicScheme scheme(kind);
    scheme.train(trace, ds1.train);
    const auto m =
        core::evaluate_predictions(trace, idx, scheme.predict(trace, idx));
    t.add_row(std::string(to_string(kind)),
              {m.positive.precision, m.positive.recall, m.negative.precision,
               m.negative.recall});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table I: Random .02/.50/.98/.50 | Basic A .40/.94/.99/.98 "
              "| Basic B .02/.69/.98/.24 | Basic C .00/.06/.98/.76\n");
  return 0;
}

constexpr ml::ModelKind kStage2Models[] = {
    ml::ModelKind::kLogisticRegression, ml::ModelKind::kGbdt,
    ml::ModelKind::kSvm, ml::ModelKind::kNeuralNetwork};

// Fig 10: F1/precision/recall of the SBE class on DS1 across Basic A and
// the four TwoStage stage-2 models. GBDT should lead with the highest
// recall at comparable precision.
int fig10(const sim::Trace& trace, FitMemo& fits) {
  TextTable t({"Model", "F1", "Precision", "Recall", "fit seconds"});
  {
    const auto m = basic_a_metrics(trace, fits.splits()[0]);
    t.add_row("Basic A", {m.positive.f1, m.positive.precision,
                          m.positive.recall, 0.0});
  }
  for (const auto kind : kStage2Models) {
    const auto m = fits.evaluate(0, two_stage(kind));
    t.add_row(std::string(ml::to_string(kind)),
              {m.positive.f1, m.positive.precision, m.positive.recall,
               fits.fitted(0, two_stage(kind)).train_seconds()});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Fig 10: BasicA F1 .56 | LR .67 | GBDT .81 | SVM .70 | NN .69\n");
  return 0;
}

// Table II: F1 of the SBE class for Basic A + the four models across DS1,
// DS2 and DS3. DS3 (whose test window falls after the machine drift) is
// the hardest; GBDT stays on top everywhere.
int table2(const sim::Trace& trace, FitMemo& fits) {
  TextTable t({"Dataset", "Basic A", "LR", "GBDT", "SVM", "NN"});
  for (std::size_t s = 0; s < fits.splits().size(); ++s) {
    const auto& split = fits.splits()[s];
    std::vector<double> row = {basic_a_metrics(trace, split).positive.f1};
    for (const auto kind : kStage2Models) {
      row.push_back(fits.evaluate(s, two_stage(kind)).positive.f1);
    }
    t.add_row(split.name, row);
    std::printf("%s done\n", split.name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table II: DS1 .56/.67/.81/.70/.69 | DS2 .75/.80/.81/.79/.77 "
              "| DS3 .55/.52/.71/.55/.51\n");
  return 0;
}

// Table III: training time of the four stage-2 models on the DS1 training
// set, one timed fit each (train_seconds). The paper's ordering is
// LR << GBDT < NN << SVM (4.8 s / 40.5 s / 20 min / 1.04 h on their Xeon);
// we reproduce the ordering, not the absolute wall-clock.
//
// Emits BENCH_table3.json with the fit time of every model plus GBDT eval
// metrics on the DS1 test window, so the trainer's perf trajectory is
// tracked run-over-run (see bench/artifacts/). obs metrics are reset before
// the row and restored after it, so the artifact counts only these fits.
int table3(const sim::Trace& trace, FitMemo& fits) {
  const core::SplitSpec& ds1 = fits.splits()[0];
  const bool obs_was_enabled = obs::enabled();
  obs::reset();
  bench::BenchJson json("table3");  // enables obs metrics
  std::map<std::string, double> recorded;
  TextTable t({"Model", "fit seconds", "stage-2 samples", "threads"});
  for (const auto kind :
       {ml::ModelKind::kLogisticRegression, ml::ModelKind::kGbdt,
        ml::ModelKind::kNeuralNetwork, ml::ModelKind::kSvm}) {
    core::TwoStagePredictor predictor(two_stage(kind));
    predictor.train(trace, ds1.train);
    const std::string key(ml::to_string(kind));
    const std::size_t samples = predictor.stage2_training_size();
    recorded[key + ".fit_seconds"] = predictor.train_seconds();
    recorded[key + ".stage2_samples"] = static_cast<double>(samples);
    if (kind == ml::ModelKind::kGbdt) {
      const ml::ClassMetrics m = predictor.evaluate(trace, ds1.test);
      recorded["GBDT.f1"] = m.positive.f1;
      recorded["GBDT.precision"] = m.positive.precision;
      recorded["GBDT.recall"] = m.positive.recall;
    }
    // Thread count the deterministic parallel layer ran with (REPRO_THREADS
    // or hardware concurrency); results are identical across values.
    t.add_row({key, fmt(predictor.train_seconds(), 2), std::to_string(samples),
               std::to_string(parallel_threads())});
  }
  std::printf("%s\n", t.render().c_str());
  for (const auto& [key, value] : recorded) json.set(key, value);
  json.write();
  obs::set_enabled(obs_was_enabled);
  return 0;
}

// Fig 11: F1 improvement over Basic A when training GBDT-TwoStage with one
// feature group at a time (Hist / TP / App) vs all features. All-features
// should win on every dataset.
int fig11(const sim::Trace& trace, FitMemo& fits) {
  struct Group {
    const char* name;
    features::FeatureMask mask;
  };
  const Group groups[] = {{"Hist", features::kGroupHist},
                          {"TP", features::kGroupTp},
                          {"App", features::kGroupApp},
                          {"All", features::kAllFeatures}};

  TextTable t({"Dataset", "BasicA F1", "Hist", "TP", "App", "All"});
  for (std::size_t s = 0; s < fits.splits().size(); ++s) {
    const auto& split = fits.splits()[s];
    const double base = basic_a_metrics(trace, split).positive.f1;
    std::vector<std::string> row = {split.name, fmt(base, 2)};
    for (const Group& g : groups) {
      const auto m = fits.evaluate(s, two_stage(ml::ModelKind::kGbdt, g.mask));
      const double improvement =
          base > 0.0 ? 100.0 * (m.positive.f1 - base) / base : 0.0;
      row.push_back(fmt(improvement, 1) + "%");
    }
    t.add_row(row);
    std::printf("%s done\n", split.name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Fig 11: improvements up to ~45%%; All biggest on every "
              "dataset; Hist can hurt on DS2\n");
  return 0;
}

// Table IV: temperature/power feature variants — Cur (target node, during
// run) / CurPrev (+ pre-run windows) / CurNei (+ slot neighbors) /
// CurPrevNei (all). The paper finds them within ~0.01 F1 of each other and
// picks Cur as the lightweight choice.
int table4(const sim::Trace&, FitMemo& fits) {
  struct Set {
    const char* name;
    features::FeatureMask mask;
  };
  const Set sets[] = {{"Cur", features::kSetCur},
                      {"CurPrev", features::kSetCurPrev},
                      {"CurNei", features::kSetCurNei},
                      {"CurPrevNei", features::kSetCurPrevNei}};

  TextTable t({"Feature Set", "Precision", "Recall", "F1 Score"});
  for (const Set& s : sets) {
    const auto m = fits.evaluate(0, two_stage(ml::ModelKind::kGbdt, s.mask));
    t.add_row(s.name, {m.positive.precision, m.positive.recall, m.positive.f1}, 3);
    std::printf("%s done\n", s.name);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table IV: Cur .764/.865/.820 | CurPrev .801/.830/.815 | "
              "CurNei .815/.838/.826 | CurPrevNei .807/.829/.818\n");
  return 0;
}

// Fig 12: drop in F1 when a slice of the SBE-history features is removed
// from the full feature set — (a) global vs local history, (b) history
// length (today / yesterday / before).
int fig12(const sim::Trace&, FitMemo& fits) {
  struct Removal {
    const char* name;
    features::FeatureMask removed;
  };
  const Removal removals[] = {
      {"- Global hist", features::kHistGlobal},
      {"- Local hist", features::kHistLocal},
      {"- Today", features::kHistToday},
      {"- Yesterday", features::kHistYesterday},
      {"- Before", features::kHistBefore},
  };

  TextTable t({"Dataset", "All F1", "- Global", "- Local", "- Today",
               "- Yesterday", "- Before"});
  for (std::size_t s = 0; s < fits.splits().size(); ++s) {
    const double full =
        fits.evaluate(s, two_stage(ml::ModelKind::kGbdt)).positive.f1;
    std::vector<std::string> row = {fits.splits()[s].name, fmt(full, 3)};
    for (const Removal& r : removals) {
      const auto m = fits.evaluate(
          s, two_stage(ml::ModelKind::kGbdt,
                       features::kAllFeatures & ~r.removed));
      const double delta =
          full > 0.0 ? 100.0 * (m.positive.f1 - full) / full : 0.0;
      row.push_back(fmt(delta, 1) + "%");
    }
    t.add_row(row);
    std::printf("%s done\n", fits.splits()[s].name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Fig 12: removing local history costs 15-25%% on DS1/DS3; "
              "removals can even help on DS2\n");
  return 0;
}

// Fig 13: spatial robustness of the TwoStage+GBDT prediction — CDFs of
// per-cabinet SBE counts (ground truth vs prediction vs true positives)
// and the per-cabinet (truth - prediction) difference.
int fig13(const sim::Trace& trace, FitMemo& fits) {
  const auto idx = core::samples_in(trace, fits.splits()[0].test);
  const auto pred = fits.fitted(0, {}).predict(trace, idx);
  const core::CabinetCounts counts = core::cabinet_counts(trace, idx, pred);

  const EmpiricalCdf truth_cdf = make_cdf(counts.ground_truth);
  const EmpiricalCdf pred_cdf = make_cdf(counts.predicted);
  const EmpiricalCdf tp_cdf = make_cdf(counts.true_positives);
  TextTable cdf({"SBE occurrences <=", "ground truth CDF", "prediction CDF",
                 "true positives CDF"});
  for (const double x : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    cdf.add_row(fmt(x, 0), {truth_cdf.at(x), pred_cdf.at(x), tp_cdf.at(x)});
  }
  std::printf("(a) CDFs across cabinets:\n%s\n", cdf.render().c_str());

  const auto diffs = counts.differences();
  std::vector<double> sorted = diffs;
  std::sort(sorted.begin(), sorted.end());
  std::printf("(b) per-cabinet (ground truth - prediction):\n");
  std::printf("    p2.5=%.0f p25=%.0f median=%.0f p75=%.0f p97.5=%.0f\n",
              quantile_sorted(sorted, 0.025), quantile_sorted(sorted, 0.25),
              quantile_sorted(sorted, 0.5), quantile_sorted(sorted, 0.75),
              quantile_sorted(sorted, 0.975));
  std::size_t small = 0;
  for (const double d : diffs) small += std::abs(d) <= 15.0 ? 1 : 0;
  std::printf("    cabinets with |difference| <= 15: %zu / %zu (%.0f%%; paper: >95%%)\n",
              small, diffs.size(),
              100.0 * static_cast<double>(small) / static_cast<double>(diffs.size()));
  return 0;
}

// Table V: prediction quality for short-running (bottom-25%-runtime) vs
// long-running (top 25%) applications — long runs should do BETTER.
int table5(const sim::Trace& trace, FitMemo& fits) {
  const auto idx = core::samples_in(trace, fits.splits()[0].test);
  const auto pred = fits.fitted(0, {}).predict(trace, idx);
  const core::RuntimeBreakdown rb = core::runtime_breakdown(trace, idx, pred);

  TextTable t({"Application", "Precision", "Recall", "F1 Score"});
  t.add_row("All", {rb.all.precision, rb.all.recall, rb.all.f1});
  t.add_row("Short", {rb.short_running.precision, rb.short_running.recall,
                      rb.short_running.f1});
  t.add_row("Long", {rb.long_running.precision, rb.long_running.recall,
                     rb.long_running.f1});
  std::printf("%s\n", t.render().c_str());
  std::printf("runtime cutoffs: short <= %.0f min, long >= %.0f min\n",
              rb.short_cutoff_min, rb.long_cutoff_min);
  std::printf("paper Table V: All .76/.87/.81 | Short .77/.94/.84 | Long .93/.90/.92\n");
  return 0;
}

// Table VI: fraction of SBE-affected runs correctly labeled per severity
// quartile (Light -> Extreme) — the predictor must catch the severe cases.
int table6(const sim::Trace& trace, FitMemo& fits) {
  const auto idx = core::samples_in(trace, fits.splits()[0].test);
  const auto pred = fits.fitted(0, {}).predict(trace, idx);
  const core::SeverityBreakdown sb = core::severity_breakdown(trace, idx, pred);

  static const char* kLevels[] = {"Light", "Moderate", "Severe", "Extreme"};
  TextTable t({"Severity", "correctly classified", "samples", "SBE-count range"});
  for (std::size_t level = 0; level < 4; ++level) {
    std::string range;
    if (level == 0) {
      range = "<= " + fmt(sb.cutoffs[0], 0);
    } else if (level == 3) {
      range = "> " + fmt(sb.cutoffs[2], 0);
    } else {
      range = fmt(sb.cutoffs[level - 1], 0) + " .. " + fmt(sb.cutoffs[level], 0);
    }
    t.add_row({kLevels[level], fmt(100.0 * sb.correct_fraction[level], 0) + "%",
               std::to_string(sb.counts[level]), range});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Table VI: Light 74%% | Moderate 88%% | Severe 93%% | Extreme 95%%\n");
  return 0;
}

ml::ClassMetrics single_stage(const sim::Trace& trace,
                              const core::SplitSpec& split,
                              double undersample_ratio, double* seconds,
                              std::size_t* train_size) {
  const features::FeatureExtractor fx(trace, {});
  const auto train_idx = core::samples_in(trace, split.train);
  ml::Dataset train = fx.build(train_idx);
  if (undersample_ratio > 0.0) {
    Rng rng(99);
    train = ml::undersample_majority(train, undersample_ratio, rng);
  }
  *train_size = train.size();
  ml::StandardScaler scaler;
  scaler.fit(train.X);
  scaler.transform_inplace(train.X);
  auto model = ml::make_model(ml::ModelKind::kGbdt, 1234);
  const auto t0 = std::chrono::steady_clock::now();
  model->fit(train);
  *seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();

  const auto test_idx = core::samples_in(trace, split.test);
  ml::Dataset test = fx.build(test_idx);
  scaler.transform_inplace(test.X);
  const auto pred = model->predict_batch(test.X);
  return ml::evaluate(test.y, pred);
}

// Ablation (DESIGN.md Sec. 5): what does stage 1 actually buy?
// Compares TwoStage-GBDT against (a) a single-stage GBDT trained on the
// full imbalanced training set, (b) single-stage + random undersampling,
// and (c) TwoStage + additional undersampling. Every fit is its own, timed.
int ablation_twostage(const sim::Trace& trace, FitMemo& fits) {
  const core::SplitSpec& ds1 = fits.splits()[0];

  TextTable t({"Pipeline", "F1", "Precision", "Recall", "train rows",
               "fit seconds"});

  for (const double ratio : {0.0, 2.0}) {
    core::TwoStageConfig config;
    config.undersample_ratio = ratio;
    core::TwoStagePredictor p(config);
    p.train(trace, ds1.train);
    const auto m = p.evaluate(trace, ds1.test);
    t.add_row(ratio == 0.0 ? "TwoStage (paper)" : "TwoStage + undersample 2:1",
              {m.positive.f1, m.positive.precision, m.positive.recall,
               static_cast<double>(p.stage2_training_size()),
               p.train_seconds()});
  }
  for (const double ratio : {0.0, 2.0}) {
    double seconds = 0.0;
    std::size_t rows = 0;
    const auto m = single_stage(trace, ds1, ratio, &seconds, &rows);
    t.add_row(ratio == 0.0 ? "Single-stage (full data)"
                           : "Single-stage + undersample 2:1",
              {m.positive.f1, m.positive.precision, m.positive.recall,
               static_cast<double>(rows), seconds});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}

ml::ClassMetrics with_params(const sim::Trace& trace,
                             const core::SplitSpec& split,
                             std::size_t trees, std::size_t depth,
                             double pos_weight, float threshold) {
  // Rebuild the stage-2 model by hand to vary GBDT parameters.
  const features::FeatureExtractor fx(trace, {});
  const auto mask = trace.sbe_log.offender_mask(0, split.train.end);
  std::vector<std::size_t> train_idx;
  for (const std::size_t i : core::samples_in(trace, split.train)) {
    if (mask[static_cast<std::size_t>(trace.samples[i].node)]) {
      train_idx.push_back(i);
    }
  }
  ml::Dataset train = fx.build(train_idx);
  ml::StandardScaler scaler;
  scaler.fit(train.X);
  scaler.transform_inplace(train.X);
  ml::GradientBoostedTrees::Params params;
  params.trees = trees;
  params.max_depth = depth;
  params.pos_weight = pos_weight;
  ml::GradientBoostedTrees gbdt(params, 1234);
  gbdt.fit(train);

  const auto test_idx = core::samples_in(trace, split.test);
  std::vector<ml::Label> pred;
  std::vector<float> row(fx.dim());
  for (const std::size_t i : test_idx) {
    const auto& s = trace.samples[i];
    if (!mask[static_cast<std::size_t>(s.node)]) {
      pred.push_back(0);
      continue;
    }
    fx.extract(s, row);
    scaler.transform_row(row);
    pred.push_back(gbdt.predict_proba(row) >= threshold ? 1 : 0);
  }
  return core::evaluate_predictions(trace, test_idx, pred);
}

// Ablation: GBDT hyperparameters on DS1 — tree count, depth, positive-class
// weight and decision threshold. Shows the operating-point trade-offs
// behind the defaults used throughout the reproduction.
int ablation_gbdt(const sim::Trace& trace, FitMemo& fits) {
  const core::SplitSpec& ds1 = fits.splits()[0];

  struct Variant {
    const char* name;
    std::size_t trees;
    std::size_t depth;
    double pos_weight;
    float threshold;
  };
  const Variant variants[] = {
      {"default (250/6/3.5/0.50)", 250, 6, 3.5, 0.5f},
      {"few trees (50)", 50, 6, 3.5, 0.5f},
      {"shallow (depth 3)", 250, 3, 3.5, 0.5f},
      {"unweighted (w=1)", 250, 6, 1.0, 0.5f},
      {"heavier weight (w=8)", 250, 6, 8.0, 0.5f},
      {"strict threshold (0.7)", 250, 6, 3.5, 0.7f},
      {"loose threshold (0.3)", 250, 6, 3.5, 0.3f},
  };
  TextTable t({"Variant", "F1", "Precision", "Recall"});
  for (const Variant& v : variants) {
    const auto m =
        with_params(trace, ds1, v.trees, v.depth, v.pos_weight, v.threshold);
    t.add_row(v.name, {m.positive.f1, m.positive.precision, m.positive.recall});
    std::printf("%s done\n", v.name);
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}

// Ablation: approach 1 vs approach 2 (Sec. VI-A).
//
// Approach 1 evaluates with the measured current-run T/P statistics
// (prediction at run end, possibly followed by re-execution); approach 2
// forecasts those statistics with AR(2) models over the telemetry observed
// BEFORE the run, so the prediction is available a priori. The paper
// reports the two "achieve similar results".
int ablation_forecast(const sim::Trace&, FitMemo& fits) {
  TextTable t({"Dataset", "approach 1 F1", "approach 2 F1", "a1 P/R",
               "a2 P/R"});
  for (std::size_t s = 0; s < fits.splits().size(); ++s) {
    core::TwoStageConfig measured;
    core::TwoStageConfig forecasted;
    forecasted.features.forecast_current_run = true;

    const auto m1 = fits.evaluate(s, measured);
    const auto m2 = fits.evaluate(s, forecasted);
    t.add_row({fits.splits()[s].name, fmt(m1.positive.f1, 3),
               fmt(m2.positive.f1, 3),
               fmt(m1.positive.precision, 2) + "/" + fmt(m1.positive.recall, 2),
               fmt(m2.positive.precision, 2) + "/" + fmt(m2.positive.recall, 2)});
    std::printf("%s done\n", fits.splits()[s].name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}

struct Row {
  const char* name;
  const char* experiment;
  const char* title;
  const char* paper_expectation;
  int (*render)(const sim::Trace& trace, FitMemo& fits);
};

constexpr Row kRows[] = {
    {"fig01", "Fig 1", "Distribution of GPU error offender nodes (cabinet level)",
     "non-uniform spatial distribution; ~80% of offenders err on "
     "<20% of days",
     fig01},
    {"fig02", "Fig 2",
     "Distribution of SBE-affected application runs (cabinet level)",
     "non-uniform spatial distribution of affected apruns", fig02},
    {"fig03", "Fig 3", "Workload vs GPU error concentration",
     "top 20% of affected apps hold >90% of SBEs; affected-run "
     "fraction decays along the ranking",
     fig03},
    {"fig04", "Fig 4", "SBE count vs GPU utilization of affected applications",
     "positive Spearman: core-hours ~0.89, memory ~0.70", fig04},
    {"fig05", "Fig 5", "Cumulative temperature / power distribution (cabinet level)",
     "hot corners in temperature, flat power; node-level Spearman "
     "of cumulative temp vs SBEs ~0.07",
     fig05},
    {"fig06", "Fig 6", "Offender-node temperature: SBE-free vs SBE-affected periods",
     "affected periods hotter by >3 degC on average; heavy overlap "
     "(no hard threshold)",
     fig06},
    {"fig07", "Fig 7", "Offender-node power: SBE-free vs SBE-affected periods",
     "affected periods draw >15 W more on average", fig07},
    {"fig08", "Fig 8", "Same app, same node, two runs: profile variability",
     "temperature profile changes between runs and is not fully "
     "explained by the node's own power",
     fig08},
    {"table1", "Table I", "Precision and recall for basic schemes (DS1)",
     "Basic A: high recall (~0.94) at low precision (~0.40); "
     "Random ~0.02/0.50; Basic B/C weak",
     table1},
    {"fig10", "Fig 10", "SBE prediction across models (DS1)",
     "GBDT F1~0.81 (P~0.76, R~0.87) beats LR/SVM/NN (F1 0.67-0.70, "
     "R~0.6) and Basic A by >= 0.1 F1",
     fig10},
    {"table2", "Table II", "F1 score for SBE occurrence prediction (DS1-DS3)",
     "GBDT best on every dataset (paper .81/.81/.71); DS3 hardest "
     "for all models",
     table2},
    {"table3", "Table III", "Mean training time for the four models (DS1)",
     "ordering LR << GBDT < NN << SVM (paper: 4.8 s, 40.5 s, "
     "20 min, 1.04 h)",
     table3},
    {"fig11", "Fig 11", "Effect of feature groups on F1 (improvement over Basic A)",
     "every group helps to some degree, no single group wins "
     "everywhere, All is always best",
     fig11},
    {"table4", "Table IV", "Temporal/spatial T-P feature sets (DS1, GBDT)",
     "all four sets within ~0.01 F1; Cur is the light-weight pick", table4},
    {"fig12", "Fig 12", "F1 decrement when removing SBE-history feature slices",
     "local history matters most (removal costs up to 15-25% on "
     "DS1/DS3); no single history length dominates",
     fig12},
    {"fig13", "Fig 13", "Per-cabinet prediction vs ground truth (DS1, GBDT)",
     "prediction CDF hugs the ground-truth CDF; ~95% of cabinets "
     "within a small error band (paper: [-15, 13])",
     fig13},
    {"table5", "Table V", "Prediction quality vs application runtime (DS1, GBDT)",
     "long-running apps get the best F1 (paper: all .81, short "
     ".84, long .92)",
     table5},
    {"table6", "Table VI", "Correctly classified SBE runs by severity (DS1, GBDT)",
     "capture rate grows with severity (paper: 74/88/93/95%)", table6},
    {"ablation_twostage", "Ablation",
     "TwoStage vs single-stage vs resampling (DS1, GBDT)",
     "stage 1 should match or beat single-stage at a fraction of "
     "the training cost (Sec. VI-C2)",
     ablation_twostage},
    {"ablation_gbdt", "Ablation", "GBDT hyperparameters within TwoStage (DS1)",
     "defaults (250 trees, depth 6, pos_weight 3.5, thr 0.5) "
     "balance precision and recall",
     ablation_gbdt},
    {"ablation_forecast", "Ablation",
     "Measured vs forecasted current-run T/P features",
     "approach 2 (forecasted features) within a few F1 points of "
     "approach 1 (Sec. VI-A: 'similar results')",
     ablation_forecast},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> rows;
  for (int a = 1; a < argc; ++a) {
    const auto it = std::find_if(
        std::begin(kRows), std::end(kRows),
        [&](const Row& r) { return std::strcmp(r.name, argv[a]) == 0; });
    if (it == std::end(kRows)) {
      std::fprintf(stderr, "paper: unknown row '%s'; valid rows:", argv[a]);
      for (const Row& r : kRows) std::fprintf(stderr, " %s", r.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    rows.push_back(it);
  }
  if (rows.empty()) {
    for (const Row& r : kRows) rows.push_back(&r);
  }

  const sim::Trace& trace = bench::paper_trace();
  FitMemo fits(trace, bench::paper_splits());
  int status = 0;
  for (const Row* row : rows) {
    bench::banner(row->experiment, row->title, row->paper_expectation);
    if (row->render(trace, fits) != 0) status = 1;
  }
  return status;
}
