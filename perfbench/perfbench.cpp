// Benchmark program for the TwoStage+GBDT pipeline (see BENCHMARK.json).
//
// One process runs one workload at one seed. Its last stdout line is the
// result: {"correct", "attempted", "failed", "metrics"}; the line before
// it is the run manifest. Workloads:
//
//   cold_pipeline  simulate 21 days of the scaled Titan (1,600 GPUs), then
//                  save_trace -> strict read_trace -> ingest_trace ->
//                  TwoStage+GBDT train on days 0-14 -> evaluate days 14-21.
//   warm_paper     set-up: strict read of the 102-day paper trace from the
//                  benchmark's cache + ingest. Measured: TwoStage+GBDT
//                  train and evaluate on DS1, DS2 and DS3 (Table II).
//   online_score   set-up: as warm_paper, plus the DS1 model. Measured:
//                  one predict() call per aprun ending after day 60, in
//                  completion order, with the audit JSONL sink on.
//
// --trace 0 measures with obs off and reports the end-to-end metrics.
// --trace 1 runs the measured phase untraced, then traced (obs on) at N
// threads and at 1 thread, and reports per-layer metrics: the benchmark's
// own timings around each public call plus the obs timers and counters
// the library already publishes.
//
// --fill-cache simulates and stores the paper trace. It runs in
// its own process so that the simulation never counts toward the measured
// process's time or peak memory.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/parallel.hpp"
#include "core/sample_index.hpp"
#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "features/features.hpp"
#include "obs/obs.hpp"
#include "sim/ingest.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

// A simulator seed changes the workload itself, not just its sample: over
// seeds 1-5 the cold pipeline took 6-13 s with an F1 of 0.16-0.46, so no
// regression bound could hold across seeds. Every workload therefore runs
// on the seed-42 traces (the paper trace), and the workload seed moves the
// stage-2 model's seed (GBDT row subsampling) instead.
constexpr std::uint64_t kTraceSeed = 42;
constexpr std::int64_t kPaperDays = 102;
constexpr std::int64_t kColdDays = 21;
constexpr std::int64_t kColdTrainDays = 14;
constexpr std::int64_t kOnlineFromDay = 60;
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 1000;
constexpr double kMinSetupSeconds = 2.0;
constexpr double kLatencySecondsPerIteration = 0.5;

// Per-split SBE-class F1 of warm_paper, recorded at full precision. A seed
// listed here must reproduce these values exactly.
const std::map<std::uint64_t, std::vector<double>> kWarmF1Reference = {
    {1, {0.84942716857610479, 0.8226072607260726, 0.59439707673568809}},
    {2, {0.85291700903861944, 0.83075637275386549, 0.59512195121951217}},
    {3, {0.85984381422112621, 0.832220367278798, 0.5972961900860303}},
    {4, {0.85179153094462534, 0.82999999999999996, 0.59893486276116348}},
    {5, {0.85363859362224037, 0.82815734989648027, 0.59885620915032678}},
    {6, {0.84915741882449647, 0.82963583089158643, 0.59926620464737057}},
    {7, {0.85245901639344268, 0.83080808080808077, 0.59699064660431067}},
    {8, {0.85655905190028603, 0.82221301284707837, 0.59787928221859699}},
    {9, {0.85028478437754274, 0.8262676641729011, 0.5950547223348196}},
    {10, {0.85410706988148755, 0.82509347735770666, 0.59567523459812322}},
    {42, {0.85609457806767231, 0.82957393483709274, 0.59819967266775775}},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t count_lines(const std::string& path) {
  const std::string s = read_file(path);
  return static_cast<std::uint64_t>(std::count(s.begin(), s.end(), '\n'));
}

sim::SimConfig cold_config() {
  sim::SimConfig c;
  c.system = topo::SystemConfig::titan_scaled();
  c.days = kColdDays;
  c.seed = kTraceSeed;
  return c;
}

/// The 102-day paper trace: drift at day 88 makes DS3 the hard split.
sim::SimConfig paper_config() {
  sim::SimConfig c;
  c.system = topo::SystemConfig::titan_scaled();
  c.days = kPaperDays;
  c.seed = kTraceSeed;
  c.faults.drift_day = 88;
  c.probe_nodes = {0, 1, 2, 3};
  return c;
}

/// TwoStage+GBDT with the model seed shifted by the workload seed; seed 42
/// is the default configuration, which reproduces the paper's numbers.
core::TwoStageConfig two_stage_config(std::uint64_t seed) {
  core::TwoStageConfig c;
  c.seed += seed - kTraceSeed;
  return c;
}

/// Wall seconds per layer, summed over every timed() call since reset().
class Layers {
 public:
  template <class F>
  decltype(auto) timed(const std::string& layer, F&& f) {
    const Scope scope(seconds_[layer]);
    return f();
  }
  [[nodiscard]] double get(const std::string& layer) const {
    const auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const {
    double t = 0.0;
    for (const auto& [name, s] : seconds_) t += s;
    return t;
  }
  void reset() { seconds_.clear(); }

 private:
  class Scope {
   public:
    explicit Scope(double& acc) : acc_(acc), t0_(Clock::now()) {}
    ~Scope() { acc_ += seconds_since(t0_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    double& acc_;
    Clock::time_point t0_;
  };
  std::map<std::string, double> seconds_;
};

/// Output checks: every check is one attempted operation, every mismatch
/// one failed operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Records `n` checks of which `bad` failed.
  void tally(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0) {
      std::fprintf(stderr, "[perfbench] %llu of %llu checks failed: %s\n",
                   static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(n), what.c_str());
    }
  }
  void expect(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
};

/// Samples of each aprun ending in `window`, in completion order: the
/// trace stores samples by run end, so an aprun is a run of equal ids.
struct Apruns {
  std::vector<std::size_t> idx;      ///< sample indices, aprun-contiguous
  std::vector<std::size_t> offsets;  ///< aprun k = idx[offsets[k], offsets[k+1])

  Apruns(const sim::Trace& trace, Interval window)
      : idx(core::samples_in(trace, window)) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (i == 0 || trace.samples[idx[i]].run != trace.samples[idx[i - 1]].run) {
        offsets.push_back(i);
      }
    }
    offsets.push_back(idx.size());
  }
  [[nodiscard]] std::size_t count() const { return offsets.size() - 1; }
  [[nodiscard]] std::span<const std::size_t> aprun(std::size_t k) const {
    return std::span<const std::size_t>(idx).subspan(
        offsets[k], offsets[k + 1] - offsets[k]);
  }
  /// True when any of aprun k's nodes passes stage 1 (reaches the model).
  [[nodiscard]] bool reaches_stage2(const sim::Trace& trace,
                                    const core::TwoStagePredictor& p,
                                    std::size_t k) const {
    const auto& mask = p.offender_mask();
    for (const std::size_t i : aprun(k)) {
      if (mask[static_cast<std::size_t>(trace.samples[i].node)]) return true;
    }
    return false;
  }
};

/// Appends to `us` the latency in microseconds of one predict() call per
/// aprun of `window` that reaches stage 2. Passes over the window repeat
/// until kLatencySecondsPerIteration have been timed.
void append_aprun_latencies(const sim::Trace& trace,
                            const core::TwoStagePredictor& p, Interval window,
                            std::vector<double>& us) {
  const Apruns apruns(trace, window);
  double total = 0.0;
  std::size_t calls = 0;
  do {
    for (std::size_t k = 0; k < apruns.count(); ++k) {
      if (!apruns.reaches_stage2(trace, p, k)) continue;
      const auto t0 = Clock::now();
      static_cast<void>(p.predict(trace, apruns.aprun(k)));
      us.push_back(1e6 * seconds_since(t0));
      total += us.back() * 1e-6;
      ++calls;
    }
  } while (calls > 0 && total < kLatencySecondsPerIteration);
}

/// What the trace run needs to time the stage-2 model on its own.
struct ModelProbe {
  const sim::Trace* trace = nullptr;
  const core::TwoStagePredictor* predictor = nullptr;
  Interval train;
  Interval test;
};

/// Stage-2 rows scored per second by the trained model alone: rebuilds the
/// predictor's scaled feature rows for the test window's stage-1
/// survivors and times predict_proba_many over them.
double model_rows_per_s(const ModelProbe& m) {
  const auto survivors = [&](Interval w) {
    std::vector<std::size_t> out;
    for (const std::size_t i : core::samples_in(*m.trace, w)) {
      const auto node = static_cast<std::size_t>(m.trace->samples[i].node);
      if (m.predictor->offender_mask()[node]) out.push_back(i);
    }
    return out;
  };
  const features::FeatureExtractor extractor(*m.trace,
                                             m.predictor->config().features);
  ml::StandardScaler scaler;
  scaler.fit(extractor.build(survivors(m.train)).X);
  ml::Matrix X = extractor.build(survivors(m.test)).X;
  if (X.rows() == 0) return 0.0;
  scaler.transform_inplace(X);
  std::size_t rows = 0;
  const auto t0 = Clock::now();
  do {
    rows += m.predictor->model().predict_proba_many(X).size();
  } while (seconds_since(t0) < 0.2);
  return static_cast<double>(rows) / seconds_since(t0);
}

/// One workload: set-up, a measured iteration, and untimed output checks.
class Workload {
 public:
  Workload(std::uint64_t seed, Layers& layers, Checks& checks)
      : seed_(seed), layers_(layers), checks_(checks) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() {}
  virtual void iterate() = 0;
  /// Checks the last iteration's outputs (untimed).
  virtual void check() = 0;
  /// SBE-class F1 of the last iteration.
  [[nodiscard]] virtual double f1() const = 0;
  /// Times per-aprun predict() calls after a measured iteration (untimed),
  /// so latencies are sampled across the whole run.
  virtual void sample_latency() {}
  /// Per-aprun predict latencies (us) of calls reaching stage 2.
  [[nodiscard]] const std::vector<double>& latency_us() const {
    return latency_us_;
  }
  [[nodiscard]] virtual ModelProbe probe() const = 0;
  [[nodiscard]] virtual std::size_t trace_samples() const = 0;
  [[nodiscard]] virtual const sim::IngestReport& ingest_report() const = 0;
  [[nodiscard]] virtual std::uint64_t trace_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t audit_bytes() const { return 0; }
  [[nodiscard]] virtual std::uint64_t sim_gpu_days() const { return 0; }
  [[nodiscard]] double sim_cpu_s() const { return sim_cpu_s_; }

 protected:
  std::uint64_t seed_;
  Layers& layers_;
  Checks& checks_;
  double sim_cpu_s_ = 0.0;
  std::vector<double> latency_us_;
};

class ColdPipeline final : public Workload {
 public:
  ColdPipeline(std::uint64_t seed, Layers& layers, Checks& checks,
               const std::string& work_dir)
      : Workload(seed, layers, checks),
        config_(cold_config()),
        path_(work_dir + "/cold.trace"),
        recheck_path_(work_dir + "/cold.recheck.trace") {}

  /// The simulator's fixed cost: topology, app catalog, per-node state.
  void setup() override { const sim::Simulator simulator(config_); }

  void iterate() override {
    trace_.reset();
    predictor_.reset();
    {
      const double cpu0 = cpu_seconds();
      const sim::Trace simulated =
          layers_.timed("sim.simulate", [&] { return sim::simulate(config_); });
      sim_cpu_s_ += cpu_seconds() - cpu0;
      layers_.timed("trace_io.save",
                    [&] { sim::save_trace(simulated, config_, path_); });
    }
    trace_ = layers_.timed("trace_io.read",
                           [&] { return sim::read_trace(config_, path_); });
    report_ = layers_.timed("ingest", [&] { return sim::ingest_trace(*trace_); });
    predictor_ = std::make_unique<core::TwoStagePredictor>(two_stage_config(seed_));
    layers_.timed("two_stage.train",
                  [&] { predictor_->train(*trace_, train_window()); });
    metrics_ = layers_.timed(
        "eval", [&] { return predictor_->evaluate(*trace_, test_window()); });
  }

  void check() override {
    // The strict read already passed; the trace it returned, after ingest,
    // must serialize to the very bytes the simulator's trace did.
    sim::save_trace(*trace_, config_, recheck_path_);
    checks_.expect(read_file(recheck_path_) == read_file(path_),
                   "cold trace round-trip changed the trace");
    checks_.expect(report_.clean(), "ingest touched a clean trace: " +
                                        report_.summary());
    checks_.expect(!predictor_->degraded(), "cold predictor degraded");
  }

  [[nodiscard]] double f1() const override { return metrics_.positive.f1; }
  void sample_latency() override {
    append_aprun_latencies(*trace_, *predictor_, test_window(), latency_us_);
  }
  [[nodiscard]] ModelProbe probe() const override {
    return {&*trace_, predictor_.get(), train_window(), test_window()};
  }
  [[nodiscard]] std::size_t trace_samples() const override {
    return trace_->samples.size();
  }
  [[nodiscard]] const sim::IngestReport& ingest_report() const override {
    return report_;
  }
  [[nodiscard]] std::uint64_t trace_bytes() const override {
    return file_bytes(path_);
  }
  [[nodiscard]] std::uint64_t sim_gpu_days() const override {
    return static_cast<std::uint64_t>(config_.system.total_nodes()) *
           static_cast<std::uint64_t>(config_.days);
  }

 private:
  static Interval train_window() { return {0, day_start(kColdTrainDays)}; }
  static Interval test_window() {
    return {day_start(kColdTrainDays), day_start(kColdDays)};
  }

  sim::SimConfig config_;
  std::string path_;
  std::string recheck_path_;
  std::optional<sim::Trace> trace_;
  sim::IngestReport report_;
  std::unique_ptr<core::TwoStagePredictor> predictor_;
  ml::ClassMetrics metrics_;
};

/// Shared set-up of the warm workloads: the cached paper trace, read
/// strictly and ingested.
class PaperTraceWorkload : public Workload {
 public:
  PaperTraceWorkload(std::uint64_t seed, Layers& layers, Checks& checks,
                     const std::string& cache_path)
      : Workload(seed, layers, checks),
        config_(paper_config()),
        cache_path_(cache_path),
        splits_(core::SplitSpec::sliding(kPaperDays)) {}

  void setup() override {
    trace_.reset();
    trace_ = layers_.timed("trace_io.read",
                           [&] { return sim::read_trace(config_, cache_path_); });
    report_ = layers_.timed("ingest", [&] { return sim::ingest_trace(*trace_); });
  }

  [[nodiscard]] std::size_t trace_samples() const override {
    return trace_->samples.size();
  }
  [[nodiscard]] const sim::IngestReport& ingest_report() const override {
    return report_;
  }
  [[nodiscard]] std::uint64_t trace_bytes() const override {
    return file_bytes(cache_path_);
  }

 protected:
  sim::SimConfig config_;
  std::string cache_path_;
  std::vector<core::SplitSpec> splits_;
  std::optional<sim::Trace> trace_;
  sim::IngestReport report_;
};

class WarmPaper final : public PaperTraceWorkload {
 public:
  using PaperTraceWorkload::PaperTraceWorkload;

  void iterate() override {
    predictors_.clear();
    f1_.clear();
    for (const core::SplitSpec& split : splits_) {
      auto& p = *predictors_.emplace_back(
          std::make_unique<core::TwoStagePredictor>(two_stage_config(seed_)));
      layers_.timed("two_stage.train", [&] { p.train(*trace_, split.train); });
      const ml::ClassMetrics m =
          layers_.timed("eval", [&] { return p.evaluate(*trace_, split.test); });
      f1_.push_back(m.positive.f1);
    }
  }

  void check() override {
    const auto ref = kWarmF1Reference.find(seed_);
    for (std::size_t s = 0; s < splits_.size(); ++s) {
      checks_.expect(!predictors_[s]->degraded(),
                     splits_[s].name + " predictor degraded");
      if (ref != kWarmF1Reference.end()) {
        char what[128];
        std::snprintf(what, sizeof(what), "%s F1 %.17g != reference %.17g",
                      splits_[s].name.c_str(), f1_[s], ref->second[s]);
        checks_.expect(f1_[s] == ref->second[s], what);
      }
    }
    for (std::size_t s = 0; s < splits_.size(); ++s) {
      std::fprintf(stderr, "[perfbench] seed %llu %s F1 %.17g\n",
                   static_cast<unsigned long long>(seed_),
                   splits_[s].name.c_str(), f1_[s]);
    }
  }

  [[nodiscard]] double f1() const override {
    double sum = 0.0;
    for (const double f : f1_) sum += f;
    return sum / static_cast<double>(f1_.size());
  }
  void sample_latency() override {
    append_aprun_latencies(*trace_, *predictors_.front(), splits_.front().test,
                         latency_us_);
  }
  [[nodiscard]] ModelProbe probe() const override {
    return {&*trace_, predictors_.front().get(), splits_.front().train,
            splits_.front().test};
  }

 private:
  std::vector<std::unique_ptr<core::TwoStagePredictor>> predictors_;
  std::vector<double> f1_;
};

class OnlineScore final : public PaperTraceWorkload {
 public:
  OnlineScore(std::uint64_t seed, Layers& layers, Checks& checks,
              const std::string& cache_path, const std::string& work_dir)
      : PaperTraceWorkload(seed, layers, checks, cache_path),
        audit_path_(work_dir + "/online.audit.jsonl") {}

  void setup() override {
    apruns_.reset();
    predictor_.reset();
    batched_.clear();
    PaperTraceWorkload::setup();
    predictor_ = std::make_unique<core::TwoStagePredictor>(two_stage_config(seed_));
    layers_.timed("two_stage.train",
                  [&] { predictor_->train(*trace_, splits_.front().train); });
    apruns_.emplace(*trace_, Interval{day_start(kOnlineFromDay),
                                      day_start(kPaperDays)});
    stage2_.assign(apruns_->count(), false);
    for (std::size_t k = 0; k < apruns_->count(); ++k) {
      stage2_[k] = apruns_->reaches_stage2(*trace_, *predictor_, k);
    }
    decisions_.assign(apruns_->idx.size(), 0);
  }

  void iterate() override {
    audit::set_sink_path(audit_path_);
    for (std::size_t k = 0; k < apruns_->count(); ++k) {
      const auto samples = apruns_->aprun(k);
      const auto t0 = Clock::now();
      const std::vector<ml::Label> d = layers_.timed(
          "score", [&] { return predictor_->predict(*trace_, samples); });
      if (stage2_[k]) latency_us_.push_back(1e6 * seconds_since(t0));
      std::copy(d.begin(), d.end(),
                decisions_.begin() +
                    static_cast<std::ptrdiff_t>(apruns_->offsets[k]));
    }
    audit::set_sink_path("");
  }

  void check() override {
    // The reference: one batched predict over every replayed sample.
    if (batched_.empty()) batched_ = predictor_->predict(*trace_, apruns_->idx);
    std::uint64_t mismatched = 0;
    for (std::size_t k = 0; k < apruns_->count(); ++k) {
      const auto b = static_cast<std::ptrdiff_t>(apruns_->offsets[k]);
      const auto e = static_cast<std::ptrdiff_t>(apruns_->offsets[k + 1]);
      mismatched += std::equal(decisions_.begin() + b, decisions_.begin() + e,
                               batched_.begin() + b)
                        ? 0
                        : 1;
    }
    checks_.tally(apruns_->count(), mismatched,
                  "per-aprun decisions differ from batched predict");
    audit_bytes_ = file_bytes(audit_path_);
    const std::uint64_t records = count_lines(audit_path_);
    checks_.expect(records == apruns_->idx.size(),
                   "audit records " + std::to_string(records) +
                       " != samples scored " +
                       std::to_string(apruns_->idx.size()));
  }

  [[nodiscard]] double f1() const override {
    return core::evaluate_predictions(*trace_, apruns_->idx, decisions_)
        .positive.f1;
  }
  [[nodiscard]] ModelProbe probe() const override {
    return {&*trace_, predictor_.get(), splits_.front().train,
            splits_.front().test};
  }
  [[nodiscard]] std::uint64_t audit_bytes() const override {
    return audit_bytes_;
  }

 private:
  std::string audit_path_;
  std::unique_ptr<core::TwoStagePredictor> predictor_;
  std::optional<Apruns> apruns_;
  std::vector<bool> stage2_;
  std::vector<ml::Label> batched_;
  std::vector<ml::Label> decisions_;
  std::uint64_t audit_bytes_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool fill_cache = false;
  std::string cache_dir = ".bench_cache";
  std::string work_dir = ".bench_work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--fill-cache") {
      a.fill_cache = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--cache-dir") a.cache_dir = v;
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

/// Prints {"name": {"value": v, "unit": u}, ...} entries in order.
class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void print_manifest(const Args& a, std::uint64_t fingerprint) {
  std::printf(
      "{\"manifest\": {\"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u, \"threads\": %zu, "
      "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"config_fingerprint\": \"%016llx\", "
      "\"obs_enabled\": %s, \"obs_capturing\": %s, \"audit_sink\": %s}}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), parallel_threads(),
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, static_cast<unsigned long long>(fingerprint),
      obs::enabled() ? "true" : "false",
      obs::capturing() ? "true" : "false",
      audit::sink() != nullptr ? "true" : "false");
}

void print_result(const Checks& checks, const MetricsJson& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      checks.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(checks.attempted),
      static_cast<unsigned long long>(checks.failed), metrics.body().c_str());
  std::fflush(stdout);
}

/// Wall and process CPU seconds of each measured iteration.
struct Measured {
  std::vector<double> wall;
  std::vector<double> cpu;
};

/// Runs and checks iterations until `seconds` of wall time were measured.
Measured measure(Workload& w, double seconds) {
  Measured m;
  double total = 0.0;
  do {
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    w.iterate();
    m.cpu.push_back(cpu_seconds() - cpu0);
    m.wall.push_back(seconds_since(t0));
    total += m.wall.back();
    w.check();
    w.sample_latency();
  } while (total < seconds);
  return m;
}

void end_to_end(const Args& a, Workload& w, Checks& checks) {
  // Set up several times and report the median; a cheap set-up repeats
  // until it has been timed for kMinSetupSeconds.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kMinSetupReps ||
         (setup_total < kMinSetupSeconds && setups.size() < kMaxSetupReps)) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
    setup_total += setups.back();
  }
  const Measured measured = measure(w, a.seconds);
  const std::vector<double>& us = w.latency_us();
  checks.expect(!us.empty(), "no aprun reached stage 2");
  MetricsJson m;
  m.add("setup_s", median(setups), "s");
  m.add("wall_s", median(measured.wall), "s");
  m.add("cpu_s", median(measured.cpu), "s");
  m.add("f1", w.f1(), "ratio");
  m.add("score_p50_us", percentile(us, 0.50), "us");
  m.add("score_p99_us", percentile(us, 0.99), "us");
  m.add("rss_peak_mb", peak_rss_mb(), "MB");
  m.add("success_rate",
        1.0 - static_cast<double>(checks.failed) /
                  static_cast<double>(std::max<std::uint64_t>(checks.attempted, 1)),
        "ratio");
  print_result(checks, m);
}

double obs_value(const std::vector<obs::Metric>& snap, const std::string& key) {
  for (const obs::Metric& m : snap) {
    if (m.key == key) return m.integral ? static_cast<double>(m.count) : m.value;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One traced pass (set-up + one iteration, obs on) at `threads` threads.
struct TracedPass {
  double wall = 0.0;           ///< the iteration only
  double iteration_layers = 0.0;
  std::map<std::string, double> layer;  ///< set-up + iteration
  std::vector<obs::Metric> snap;
};

const std::vector<std::string> kBenchLayers = {
    "sim.simulate", "trace_io.save", "trace_io.read", "ingest",
    "two_stage.train", "eval", "score"};

TracedPass traced_pass(Workload& w, Layers& layers, std::size_t threads) {
  set_parallel_threads(threads);
  obs::set_enabled(true);
  obs::reset();
  layers.reset();
  TracedPass p;
  w.setup();
  const double setup_layers = layers.total();
  const auto t0 = Clock::now();
  w.iterate();
  p.wall = seconds_since(t0);
  p.iteration_layers = layers.total() - setup_layers;
  obs::set_enabled(false);
  p.snap = obs::snapshot();
  for (const std::string& name : kBenchLayers) p.layer[name] = layers.get(name);
  w.check();
  return p;
}

void per_layer(const Args& a, Workload& w, Layers& layers, Checks& checks) {
  const std::size_t threads = parallel_threads();
  w.setup();
  const double untraced = median(measure(w, a.seconds).wall);
  const double sim_cpu0 = w.sim_cpu_s();
  const TracedPass n = traced_pass(w, layers, threads);
  const double sim_cpu = w.sim_cpu_s() - sim_cpu0;
  const TracedPass one = traced_pass(w, layers, 1);
  set_parallel_threads(threads);
  const double rows_per_s = model_rows_per_s(w.probe());

  const auto& s = n.snap;
  const auto ob = [&](const std::string& key) { return obs_value(s, key); };
  const auto speedup = [&](const std::string& layer) {
    return ratio(one.layer.at(layer), n.layer.at(layer));
  };
  const auto obs_speedup = [&](const std::string& key) {
    return ratio(obs_value(one.snap, key), obs_value(s, key));
  };
  const double sim_s = n.layer.at("sim.simulate");
  const double features_s = ob("features.build_seconds");
  const double features_rows = ob("features.rows_built");

  MetricsJson m;
  m.add("sim.simulate_s", sim_s, "s");
  m.add("sim.gpu_days_per_s", ratio(static_cast<double>(w.sim_gpu_days()), sim_s),
        "1/s");
  m.add("sim.samples", static_cast<double>(w.trace_samples()), "count");
  m.add("sim.cpu_per_wall", ratio(sim_cpu, sim_s), "ratio");
  m.add("parallel.regions", ob("parallel.region_calls"), "count");
  m.add("parallel.region_s", ob("parallel.region_seconds"), "s");
  m.add("scaling.speedup", ratio(one.wall, n.wall), "ratio");
  m.add("trace_io.save_s", n.layer.at("trace_io.save"), "s");
  m.add("trace_io.read_s", n.layer.at("trace_io.read"), "s");
  m.add("trace_io.bytes", static_cast<double>(w.trace_bytes()), "bytes");
  m.add("ingest.s", n.layer.at("ingest"), "s");
  m.add("ingest.records",
        static_cast<double>(w.ingest_report().records_seen()), "count");
  m.add("ingest.quarantined",
        static_cast<double>(w.ingest_report().quarantined()), "count");
  m.add("stage1.s", ob("two_stage.stage1_seconds"), "s");
  m.add("stage1.survivor_frac",
        ratio(ob("two_stage.predict_stage1_survivors"),
              ob("two_stage.predict_samples_seen")),
        "ratio");
  m.add("two_stage.train_s", n.layer.at("two_stage.train"), "s");
  m.add("two_stage.predict_s", ob("two_stage.predict_seconds"), "s");
  m.add("eval.s", n.layer.at("eval"), "s");
  m.add("score.s", n.layer.at("score"), "s");
  m.add("features.build_s", features_s, "s");
  m.add("features.rows", features_rows, "count");
  m.add("features.us_per_row", 1e6 * ratio(features_s, features_rows), "us");
  m.add("gbdt.fit_s", ob("gbdt.fit_seconds"), "s");
  m.add("gbdt.bin_s", ob("gbdt.bin_seconds"), "s");
  m.add("gbdt.hist_builds", ob("gbdt.hist_builds"), "count");
  m.add("gbdt.hist_subtractions", ob("gbdt.hist_subtractions"), "count");
  m.add("gbdt.trees", ob("gbdt.trees_built"), "count");
  m.add("gbdt.predict_rows_per_s", rows_per_s, "1/s");
  m.add("audit.log_s", ob("audit.log_seconds"), "s");
  m.add("audit.records", ob("audit.records_written"), "count");
  m.add("audit.bytes", static_cast<double>(w.audit_bytes()), "bytes");
  m.add("audit.drift_s",
        ob("audit.drift_fit_seconds") + ob("audit.drift_compare_seconds"), "s");
  m.add("trace.overhead_frac", ratio(n.wall, untraced) - 1.0, "ratio");
  m.add("trace.coverage_frac", ratio(n.iteration_layers, n.wall), "ratio");
  m.add("scaling.sim.speedup", speedup("sim.simulate"), "ratio");
  m.add("scaling.trace_io.speedup",
        ratio(one.layer.at("trace_io.save") + one.layer.at("trace_io.read"),
              n.layer.at("trace_io.save") + n.layer.at("trace_io.read")),
        "ratio");
  m.add("scaling.ingest.speedup", speedup("ingest"), "ratio");
  m.add("scaling.two_stage.speedup", speedup("two_stage.train"), "ratio");
  m.add("scaling.eval.speedup", speedup("eval"), "ratio");
  m.add("scaling.score.speedup", speedup("score"), "ratio");
  m.add("scaling.features.speedup", obs_speedup("features.build_seconds"),
        "ratio");
  m.add("scaling.gbdt.speedup", obs_speedup("gbdt.fit_seconds"), "ratio");
  m.add("scaling.audit.speedup", obs_speedup("audit.log_seconds"), "ratio");
  print_result(checks, m);
}

/// Simulates and stores the paper trace unless the cache
/// already holds it. Prints "hit" or "miss".
int fill_cache(const Args& a) {
  const sim::SimConfig config = paper_config();
  std::filesystem::create_directories(a.cache_dir);
  const std::string path = sim::cache_path(config, a.cache_dir);
  if (std::filesystem::exists(path)) {
    std::printf("hit\n");
    return 0;
  }
  sim::save_trace(sim::simulate(config), config, path);
  std::printf("miss\n");
  return 0;
}

int run(const Args& a) {
  if (a.fill_cache) return fill_cache(a);
  // Keep freed memory in the process instead of returning it to the OS.
  // Page faults on this VM cost a varying amount from minute to minute; with
  // glibc's default trimming, re-faulting made the same millisecond set-up
  // read anywhere from 2.2 to 4.4 ms. Allocations above 32 MB stay mmapped.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // The measured program: obs off (an obs-on TwoStagePredictor also fits
  // and compares drift detectors), no trace capture, no audit sink except
  // where online_score installs its own.
  obs::set_enabled(false);
  obs::set_capturing(false);
  audit::set_sink_path("");
  std::filesystem::create_directories(a.work_dir);

  Layers layers;
  Checks checks;
  std::unique_ptr<Workload> w;
  std::uint64_t fingerprint = 0;
  if (a.workload == "cold_pipeline") {
    fingerprint = sim::config_fingerprint(cold_config());
    w = std::make_unique<ColdPipeline>(a.seed, layers, checks, a.work_dir);
  } else if (a.workload == "warm_paper" || a.workload == "online_score") {
    const sim::SimConfig config = paper_config();
    fingerprint = sim::config_fingerprint(config);
    const std::string cache = sim::cache_path(config, a.cache_dir);
    if (!std::filesystem::exists(cache)) {
      std::fprintf(stderr, "[perfbench] no cached trace %s\n", cache.c_str());
      return 2;
    }
    if (a.workload == "warm_paper") {
      w = std::make_unique<WarmPaper>(a.seed, layers, checks, cache);
    } else {
      w = std::make_unique<OnlineScore>(a.seed, layers, checks, cache,
                                        a.work_dir);
    }
  } else {
    std::fprintf(stderr, "[perfbench] unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  print_manifest(a, fingerprint);
  if (a.trace) {
    per_layer(a, *w, layers, checks);
  } else {
    end_to_end(a, *w, checks);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
    return 1;
  }
}
