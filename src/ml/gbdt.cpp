#include "ml/gbdt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace repro::ml {

GradientBoostedTrees::GradientBoostedTrees(std::uint64_t seed) : GradientBoostedTrees(Params{}, seed) {}

GradientBoostedTrees::GradientBoostedTrees(const Params& params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

void FeatureBinner::fit(const Matrix& X, std::size_t max_bins,
                        std::size_t sample_rows, std::uint64_t seed) {
  REPRO_CHECK(X.rows() > 0);
  REPRO_CHECK(max_bins >= 2 && max_bins <= kMaxBins);
  const std::size_t d = X.cols();
  edges_.assign(d, {});

  Rng rng(seed);
  std::vector<std::size_t> rows;
  if (X.rows() <= sample_rows) {
    rows.resize(X.rows());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
  } else {
    rows = rng.sample_without_replacement(X.rows(), sample_rows);
  }

  // Features are independent: one chunk per feature, each with its own
  // sort buffer. Identical to the serial loop for any thread count.
  parallel_for(d, 1, [&](std::size_t f_begin, std::size_t f_end) {
    std::vector<float> values(rows.size());
    for (std::size_t f = f_begin; f < f_end; ++f) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        values[i] = X.at(rows[i], f);
        REPRO_CHECK_MSG(std::isfinite(values[i]),
                        "non-finite value at row " << rows[i] << ", feature "
                                                   << f);
      }
      std::sort(values.begin(), values.end());
      auto& edges = edges_[f];
      float last = values.front();
      for (std::size_t b = 1; b < max_bins; ++b) {
        const std::size_t pos = b * values.size() / max_bins;
        const float v = values[std::min(pos, values.size() - 1)];
        if (v > last) {
          edges.push_back(v);
          last = v;
        }
      }
    }
  });
}

std::size_t FeatureBinner::bins(std::size_t feature) const {
  REPRO_CHECK(feature < edges_.size());
  return edges_[feature].size() + 1;
}

std::uint8_t FeatureBinner::code(std::size_t feature, float value) const {
  const auto& edges = edges_[feature];
  // code = count of edges < value  <=>  bin of the half-open partition
  // (-inf, e0], (e0, e1], ..., (e_{k-1}, +inf).
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::uint8_t>(it - edges.begin());
}

float FeatureBinner::upper_edge(std::size_t feature, std::uint8_t c) const {
  const auto& edges = edges_[feature];
  REPRO_CHECK_MSG(c < edges.size(), "no upper edge for the last bin");
  return edges[c];
}

std::vector<std::uint8_t> FeatureBinner::transform(const Matrix& X) const {
  REPRO_CHECK_MSG(X.cols() == edges_.size(), "binner width mismatch");
  std::vector<std::uint8_t> codes(X.rows() * X.cols());
  parallel_for(X.rows(), 512, [&](std::size_t r_begin, std::size_t r_end) {
    for (std::size_t r = r_begin; r < r_end; ++r) {
      const auto row = X.row(r);
      for (std::size_t f = 0; f < X.cols(); ++f) {
        codes[r * X.cols() + f] = code(f, row[f]);
      }
    }
  });
  return codes;
}

BinnedColumns FeatureBinner::transform_columns(const Matrix& X) const {
  REPRO_CHECK_MSG(X.cols() == edges_.size(), "binner width mismatch");
  BinnedColumns binned;
  binned.rows = X.rows();
  binned.features = X.cols();
  binned.codes.resize(binned.rows * binned.features);
  binned.offsets.resize(binned.features + 1);
  std::uint32_t offset = 0;
  for (std::size_t f = 0; f < binned.features; ++f) {
    binned.offsets[f] = offset;
    const std::size_t nbins = bins(f);
    if (nbins >= 2) offset += static_cast<std::uint32_t>(nbins);
  }
  binned.offsets[binned.features] = offset;
  // Columns are disjoint write ranges; one chunk per feature.
  parallel_for(binned.features, 1, [&](std::size_t f_begin, std::size_t f_end) {
    for (std::size_t f = f_begin; f < f_end; ++f) {
      std::uint8_t* col = binned.codes.data() + f * binned.rows;
      for (std::size_t r = 0; r < binned.rows; ++r) {
        const float v = X.at(r, f);
        REPRO_CHECK_MSG(std::isfinite(v), "non-finite value at row "
                                              << r << ", feature " << f);
        col[r] = code(f, v);
      }
    }
  });
  return binned;
}

namespace {

inline float sigmoidf(float z) noexcept {
  return 1.0f / (1.0f + std::exp(-z));
}

// Per-node histogram chunking: the chunk-count cap bounds scratch memory;
// the grain grows with the node's row count instead (both depend only on
// the data, never on the thread count).
constexpr std::size_t kMaxHistChunks = 16;
constexpr std::size_t kMinHistGrain = 4096;

// Splittable features per level-kernel task. One pass over a node's rows
// updates this many histogram slices, so each row carries as many
// independent read-add-store chains instead of one.
constexpr std::size_t kGroupWidth = 8;

// Adds the ordered (g, h) pairs of `count` rows into N feature slices in
// one pass (slice j: interleaved g/h cells of column cols[j]). Each cell
// still receives its rows in ascending order. A cell's g and h updates are
// adjacent, so the compiler can do both in one packed add.
template <std::size_t N>
void accumulate_group(const std::size_t* rows, const double* gh,
                      std::size_t count, const std::uint8_t* const* cols,
                      double* const* slices) {
  const std::uint8_t* col[N];
  double* slice[N];
  for (std::size_t j = 0; j < N; ++j) {
    col[j] = cols[j];
    slice[j] = slices[j];
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = rows[i];
    const double g = gh[2 * i];
    const double h = gh[2 * i + 1];
    std::size_t cell[N];
    for (std::size_t j = 0; j < N; ++j) cell[j] = 2 * std::size_t{col[j][r]};
    for (std::size_t j = 0; j < N; ++j) {
      double* c = slice[j] + cell[j];
      c[0] += g;
      c[1] += h;
    }
  }
}

using AccumulateFn = void (*)(const std::size_t*, const double*, std::size_t,
                              const std::uint8_t* const*, double* const*);

template <std::size_t... I>
constexpr std::array<AccumulateFn, sizeof...(I)> accumulate_table(
    std::index_sequence<I...>) {
  return {&accumulate_group<I + 1>...};
}

// kAccumulate[n - 1] accumulates a group of n features.
constexpr auto kAccumulate =
    accumulate_table(std::make_index_sequence<kGroupWidth>{});

// Trees the inference kernel routes together for one row.
constexpr std::size_t kTreeGroup = 16;

}  // namespace

/// Buffers one fit reuses across every level and tree.
struct GradientBoostedTrees::FitScratch {
  struct FeatureSplit {
    double gain = 0.0;
    std::uint8_t code = 0;
  };
  std::vector<std::uint32_t> split_features;  ///< splittable, ascending
  std::vector<double> ordered;    ///< (g, h) of row_index[k] at [2k, 2k+1]
  std::vector<std::size_t> spill; ///< partition spill, aligned with row_index
  std::vector<std::vector<double>> hists;  ///< 2 * total_bins each
  std::vector<std::size_t> free_hists;     ///< indices into hists
  std::vector<FeatureSplit> best;          ///< per (level node, split feature)
};

float GradientBoostedTrees::Tree::predict_binned(
    const BinnedColumns& binned, std::size_t row) const noexcept {
  std::int32_t i = 0;
  while (nodes[static_cast<std::size_t>(i)].feature >= 0) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    const std::uint8_t c =
        binned.column(static_cast<std::size_t>(n.feature))[row];
    i = c <= n.code ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(i)].value;
}

GradientBoostedTrees::Tree GradientBoostedTrees::build_tree(
    const BinnedColumns& binned, std::vector<std::size_t>& row_index,
    const std::vector<float>& grad, const std::vector<float>& hess,
    FitScratch& scratch, std::vector<LeafRange>& leaves) {
  Tree tree;
  tree.nodes.push_back({});
  leaves.clear();

  // One frontier entry per tree node still growing. Children of one split
  // are adjacent (2p, 2p+1); `parents[p]` keeps their parent's histogram
  // and G/H so the larger sibling can be derived by subtraction.
  struct BuildNode {
    std::int32_t node = 0;
    std::size_t begin = 0, end = 0;  // range in row_index
    std::size_t hist = 0;            // index into scratch.hists
    double G = 0.0, H = 0.0;
    std::int32_t best_f = -1;
    std::uint8_t best_code = 0;
    double best_gain = 0.0;
  };
  struct Parent {
    std::size_t hist = 0;
    double G = 0.0, H = 0.0;
  };
  // One chunk of a directly built node's rows (the fixed chunk grid).
  struct RowChunk {
    std::size_t node = 0, begin = 0, end = 0;
    double G = 0.0, H = 0.0;
  };

  const double lambda = params_.lambda;
  const auto leaf_value = [&](double G, double H) {
    return static_cast<float>(-G / (H + lambda) * params_.learning_rate);
  };
  const auto acquire_hist = [&] {
    if (scratch.free_hists.empty()) {
      scratch.hists.emplace_back(2 * binned.total_bins());
      return scratch.hists.size() - 1;
    }
    const std::size_t h = scratch.free_hists.back();
    scratch.free_hists.pop_back();
    return h;
  };
  const auto& split_features = scratch.split_features;
  const std::size_t nsplit = split_features.size();
  const std::size_t ngroups = (nsplit + kGroupWidth - 1) / kGroupWidth;

  // Best split of one feature of one node: bins scanned in ascending order
  // with strict improvement over gamma.
  const auto scan_feature = [&](const double* hist, double G, double H,
                                std::uint32_t f) {
    FitScratch::FeatureSplit best{params_.gamma, 0};
    const double parent_obj = G * G / (H + lambda);
    const std::size_t width = binned.offsets[f + 1] - binned.offsets[f];
    const double* slice = hist + 2 * binned.offsets[f];
    double GL = 0.0, HL = 0.0;
    for (std::size_t c = 0; c + 1 < width; ++c) {
      GL += slice[2 * c];
      HL += slice[2 * c + 1];
      const double HR = H - HL;
      if (HL < params_.min_child_hessian || HR < params_.min_child_hessian) {
        continue;
      }
      const double GR = G - GL;
      const double gain = 0.5 * (GL * GL / (HL + lambda) +
                                 GR * GR / (HR + lambda) - parent_obj);
      if (gain > best.gain) {
        best.gain = gain;
        best.code = static_cast<std::uint8_t>(c);
      }
    }
    return best;
  };

  std::vector<BuildNode> level(1);
  level[0].end = row_index.size();
  std::vector<Parent> parents;
  std::vector<std::size_t> direct;
  std::vector<RowChunk> chunks;

  for (std::size_t depth = 0; !level.empty(); ++depth) {
    depth_ = std::max(depth_, depth);
    if (depth >= params_.max_depth) {
      // Depth limit: every frontier node becomes a leaf. Only G/H are
      // needed, so sum rows directly instead of building histograms.
      // Nodes are independent; each node's row sum stays serial.
      parallel_for(level.size(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          BuildNode& bn = level[i];
          double G = 0.0, H = 0.0;
          for (std::size_t k = bn.begin; k < bn.end; ++k) {
            G += grad[row_index[k]];
            H += hess[row_index[k]];
          }
          bn.G = G;
          bn.H = H;
        }
      });
      for (const BuildNode& bn : level) {
        const float value = leaf_value(bn.G, bn.H);
        tree.nodes[static_cast<std::size_t>(bn.node)].value = value;
        leaves.push_back({bn.begin, bn.end, value});
      }
      break;
    }

    // Pair p is level[2p], level[2p+1] (the root alone at depth 0). Its
    // smaller node is built from rows; the larger takes over the parent's
    // histogram buffer and becomes parent - smaller in place.
    const std::size_t npairs = depth == 0 ? 1 : level.size() / 2;
    direct.clear();
    chunks.clear();
    std::uint64_t builds = 0;
    for (std::size_t p = 0; p < npairs; ++p) {
      std::size_t small = 0;
      if (depth > 0) {
        const BuildNode& left = level[2 * p];
        const BuildNode& right = level[2 * p + 1];
        const bool left_smaller =
            left.end - left.begin <= right.end - right.begin;
        small = left_smaller ? 2 * p : 2 * p + 1;
        level[left_smaller ? 2 * p + 1 : 2 * p].hist = parents[p].hist;
      }
      direct.push_back(small);
      BuildNode& bn = level[small];
      bn.hist = acquire_hist();
      const std::size_t count = bn.end - bn.begin;
      const std::size_t grain =
          chunk_grain_for(count, kMinHistGrain, kMaxHistChunks);
      for (std::size_t c = bn.begin; c < bn.end; c += grain) {
        chunks.push_back({small, c, std::min(c + grain, bn.end)});
      }
      builds += count > 0 ? 1 : 0;
    }
    OBS_COUNT_ADD("gbdt.hist_builds", builds);
    if (depth > 0) OBS_COUNT_ADD("gbdt.hist_subtractions", npairs);

    // Step 1 — gather: ordered gradients of every directly built node,
    // aligned with row_index, plus per-chunk G/H partials summed into the
    // node in chunk order.
    parallel_for(chunks.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        RowChunk& ch = chunks[k];
        double G = 0.0, H = 0.0;
        for (std::size_t i = ch.begin; i < ch.end; ++i) {
          const std::size_t r = row_index[i];
          scratch.ordered[2 * i] = grad[r];
          scratch.ordered[2 * i + 1] = hess[r];
          G += grad[r];
          H += hess[r];
        }
        ch.G = G;
        ch.H = H;
      }
    });
    for (const RowChunk& ch : chunks) {
      level[ch.node].G += ch.G;
      level[ch.node].H += ch.H;
    }
    for (std::size_t p = 0; depth > 0 && p < npairs; ++p) {
      const BuildNode& small = level[direct[p]];
      BuildNode& large = level[direct[p] ^ 1];
      large.G = parents[p].G - small.G;
      large.H = parents[p].H - small.H;
    }

    // Step 2 — one region per level over (pair, feature group) tasks: the
    // smaller node's group slices in one pass over its rows (chunk
    // partials added into the zeroed slices in chunk order), the larger
    // node's slices by subtraction, then each feature's best split on
    // both nodes. Tasks write disjoint slices and `best` cells.
    scratch.best.resize(level.size() * nsplit);
    parallel_for(npairs * ngroups, 1, [&](std::size_t t_begin,
                                          std::size_t t_end) {
      std::array<double, 2 * kGroupWidth * FeatureBinner::kMaxBins> partial;
      for (std::size_t t = t_begin; t < t_end; ++t) {
        const std::size_t p = t / ngroups;
        const std::size_t j_begin = (t % ngroups) * kGroupWidth;
        const std::size_t j_end = std::min(j_begin + kGroupWidth, nsplit);
        // The group's slices are contiguous in the packed histogram.
        const std::size_t lo = 2 * binned.offsets[split_features[j_begin]];
        const std::size_t hi =
            2 * binned.offsets[split_features[j_end - 1] + 1];
        const BuildNode& small = level[direct[p]];
        double* small_hist = scratch.hists[small.hist].data();
        std::fill(small_hist + lo, small_hist + hi, 0.0);

        const std::size_t count = small.end - small.begin;
        const std::size_t grain =
            chunk_grain_for(count, kMinHistGrain, kMaxHistChunks);
        // A single-chunk node accumulates in place; otherwise each chunk
        // goes through `partial` so every cell sums its chunk partials.
        const bool chunked = count > grain;
        double* target = chunked ? partial.data() : small_hist + lo;
        const std::uint8_t* cols[kGroupWidth];
        double* slices[kGroupWidth];
        for (std::size_t j = j_begin; j < j_end; ++j) {
          const std::uint32_t f = split_features[j];
          cols[j - j_begin] = binned.column(f);
          slices[j - j_begin] = target + (2 * binned.offsets[f] - lo);
        }
        const AccumulateFn accumulate = kAccumulate[j_end - j_begin - 1];
        for (std::size_t c = small.begin; c < small.end; c += grain) {
          const std::size_t c_end = std::min(c + grain, small.end);
          if (chunked) std::fill_n(partial.begin(), hi - lo, 0.0);
          accumulate(row_index.data() + c, scratch.ordered.data() + 2 * c,
                     c_end - c, cols, slices);
          for (std::size_t i = lo; chunked && i < hi; ++i) {
            small_hist[i] += partial[i - lo];
          }
        }

        const auto scan_node = [&](std::size_t n) {
          const BuildNode& bn = level[n];
          const double* hist = scratch.hists[bn.hist].data();
          for (std::size_t j = j_begin; j < j_end; ++j) {
            scratch.best[n * nsplit + j] =
                scan_feature(hist, bn.G, bn.H, split_features[j]);
          }
        };
        scan_node(direct[p]);
        if (depth > 0) {
          const std::size_t large = direct[p] ^ 1;
          double* large_hist = scratch.hists[level[large].hist].data();
          for (std::size_t i = lo; i < hi; ++i) large_hist[i] -= small_hist[i];
          scan_node(large);
        }
      }
    });

    // Step 3 — serial reduce in ascending feature order with strict
    // improvement: the same choice as one (feature, bin) scan.
    for (std::size_t i = 0; i < level.size(); ++i) {
      BuildNode& bn = level[i];
      bn.best_gain = params_.gamma;
      bn.best_f = -1;
      for (std::size_t j = 0; j < nsplit; ++j) {
        const FitScratch::FeatureSplit& fs = scratch.best[i * nsplit + j];
        if (fs.gain > bn.best_gain) {
          bn.best_gain = fs.gain;
          bn.best_f = static_cast<std::int32_t>(split_features[j]);
          bn.best_code = fs.code;
        }
      }
    }

    // Materialize leaves and allocate children serially so tree node ids
    // and frontier order are scheduling-independent. A splitting node's
    // histogram is kept as its children's parent unless they sit at the
    // depth limit; every other histogram buffer goes back to the pool.
    const bool children_build = depth + 1 < params_.max_depth;
    std::vector<BuildNode> next;
    std::vector<std::size_t> splitting;
    parents.clear();
    for (std::size_t i = 0; i < level.size(); ++i) {
      BuildNode& bn = level[i];
      Node& node = tree.nodes[static_cast<std::size_t>(bn.node)];
      // Split nodes keep their own Newton value too: explain()'s path
      // attribution charges value deltas along the root -> leaf walk.
      node.value = leaf_value(bn.G, bn.H);
      if (bn.best_f < 0) {
        leaves.push_back({bn.begin, bn.end, node.value});
        scratch.free_hists.push_back(bn.hist);
        continue;
      }
      node.feature = bn.best_f;
      node.code = bn.best_code;
      node.threshold =
          binner_.upper_edge(static_cast<std::size_t>(bn.best_f), bn.best_code);
      node.gain = bn.best_gain;
      const auto left_id = static_cast<std::int32_t>(tree.nodes.size());
      node.left = left_id;
      node.right = left_id + 1;
      // push_back may reallocate; `node` must not be touched after this.
      tree.nodes.push_back({});
      tree.nodes.push_back({});
      next.push_back({.node = left_id});
      next.push_back({.node = left_id + 1});
      splitting.push_back(i);
      if (children_build) {
        parents.push_back({bn.hist, bn.G, bn.H});
      } else {
        scratch.free_hists.push_back(bn.hist);
      }
    }

    // In-place stable partition of each splitting node's slice of the
    // shared index buffer; right-going rows spill into the same range of
    // the per-fit spill buffer. Ranges are disjoint and order within each
    // side is preserved.
    parallel_for(splitting.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        const BuildNode& bn = level[splitting[k]];
        const std::uint8_t* col =
            binned.column(static_cast<std::size_t>(bn.best_f));
        std::size_t write = bn.begin;
        std::size_t spilled = bn.begin;
        for (std::size_t i = bn.begin; i < bn.end; ++i) {
          const std::size_t r = row_index[i];
          if (col[r] <= bn.best_code) {
            row_index[write++] = r;
          } else {
            scratch.spill[spilled++] = r;
          }
        }
        std::copy(scratch.spill.begin() + static_cast<std::ptrdiff_t>(bn.begin),
                  scratch.spill.begin() + static_cast<std::ptrdiff_t>(spilled),
                  row_index.begin() + static_cast<std::ptrdiff_t>(write));
        next[2 * k].begin = bn.begin;
        next[2 * k].end = write;
        next[2 * k + 1].begin = write;
        next[2 * k + 1].end = bn.end;
      }
    });
    level = std::move(next);
  }
  return tree;
}

void GradientBoostedTrees::fit(const Dataset& train) {
  OBS_SPAN("gbdt.fit");
  train.validate();
  REPRO_CHECK_MSG(train.size() > 0, "empty training set");
  const std::size_t n = train.size();
  const std::size_t d = train.features();
  features_ = d;
  trees_.clear();
  score_nodes_.clear();
  roots_.clear();
  depth_ = 0;

  const BinnedColumns binned = [&] {
    OBS_SPAN("gbdt.bin");
    binner_.fit(train.X, params_.max_bins);
    return binner_.transform_columns(train.X);
  }();

  // Weighted prior log-odds.
  double wpos = 0.0, wtot = 0.0;
  for (const Label l : train.y) {
    const double w = l ? params_.pos_weight : 1.0;
    wpos += l ? w : 0.0;
    wtot += w;
  }
  const double prior = std::clamp(wpos / wtot, 1e-6, 1.0 - 1e-6);
  base_score_ = static_cast<float>(std::log(prior / (1.0 - prior)));

  std::vector<float> score(n, base_score_);
  std::vector<float> grad(n), hess(n);
  std::vector<std::size_t> row_index;
  row_index.reserve(n);
  std::vector<std::uint8_t> in_sample(n, 0);
  std::vector<LeafRange> leaves;
  FitScratch scratch;
  for (std::size_t f = 0; f < d; ++f) {
    if (binned.offsets[f + 1] > binned.offsets[f]) {
      scratch.split_features.push_back(static_cast<std::uint32_t>(f));
    }
  }
  scratch.ordered.resize(2 * n);
  scratch.spill.resize(n);

  for (std::size_t t = 0; t < params_.trees; ++t) {
    // Per-row gradients/hessians: disjoint writes, no accumulation.
    parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        const float p = sigmoidf(score[r]);
        const float w =
            train.y[r] ? static_cast<float>(params_.pos_weight) : 1.0f;
        grad[r] = w * (p - static_cast<float>(train.y[r]));
        hess[r] = w * p * (1.0f - p);
      }
    });
    // Subsampling consumes the model's single Rng stream, so it must stay
    // serial: the draw sequence is part of the deterministic state.
    row_index.clear();
    if (params_.subsample < 1.0) {
      for (std::size_t r = 0; r < n; ++r) {
        if (rng_.bernoulli(params_.subsample)) {
          row_index.push_back(r);
          in_sample[r] = 1;
        }
      }
      if (row_index.empty()) {
        row_index.resize(n);
        std::iota(row_index.begin(), row_index.end(), std::size_t{0});
      }
    } else {
      row_index.resize(n);
      std::iota(row_index.begin(), row_index.end(), std::size_t{0});
    }
    const std::size_t sampled = row_index.size();

    Tree tree = build_tree(binned, row_index, grad, hess, scratch, leaves);
    OBS_COUNT("gbdt.trees_built");

    // In-subsample rows: their leaf is known from partitioning, so the
    // update is an indexed lookup. Leaf ranges are disjoint slices.
    parallel_for(leaves.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t li = b; li < e; ++li) {
        const LeafRange& leaf = leaves[li];
        for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
          score[row_index[i]] += leaf.value;
        }
      }
    });
    // Out-of-subsample rows route through the tree on binned codes (uint8
    // compares; identical routing to the float path by the binner's
    // value <= upper_edge(c) <=> code <= c property).
    if (sampled < n) {
      parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          if (!in_sample[r]) score[r] += tree.predict_binned(binned, r);
        }
      });
      for (std::size_t i = 0; i < sampled; ++i) in_sample[row_index[i]] = 0;
    }
    append_score_nodes(tree);
    trees_.push_back(std::move(tree));
  }
}

void GradientBoostedTrees::append_score_nodes(const Tree& tree) {
  const auto base = static_cast<std::int32_t>(score_nodes_.size());
  roots_.push_back(base);
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const Node& n = tree.nodes[i];
    if (n.feature >= 0) {
      score_nodes_.push_back({n.feature, n.threshold, base + n.left, n.value});
    } else {
      score_nodes_.push_back({0, std::numeric_limits<float>::quiet_NaN(),
                              base + static_cast<std::int32_t>(i) - 1,
                              n.value});
    }
  }
}

// Each step moves every tree of the group to `left + !(x[f] <= threshold)`
// without a branch, so the group's chains of dependent loads (node, then
// feature value, then next node) overlap instead of waiting on each other.
// Children are adjacent, NaN fails every <= so it goes right, and a leaf's
// NaN threshold and `left = self - 1` keep it in place, so shallower trees
// just idle for the forest's remaining levels. path[l * kTreeGroup + k]
// receives tree k's node at level l = 0..depth_.
inline void GradientBoostedTrees::route_group(const std::int32_t* roots,
                                              const float* x, std::int32_t* at,
                                              std::int32_t* path) const {
  const ScoreNode* nodes = score_nodes_.data();
  std::copy_n(roots, kTreeGroup, at);
  if (path != nullptr) std::copy_n(at, kTreeGroup, path);
  for (std::size_t l = 1; l <= depth_; ++l) {
    for (std::size_t k = 0; k < kTreeGroup; ++k) {
      const ScoreNode& n = nodes[at[k]];
      at[k] = n.left +
              static_cast<std::int32_t>(!(x[n.feature] <= n.threshold));
    }
    if (path != nullptr) std::copy_n(at, kTreeGroup, path + l * kTreeGroup);
  }
}

template <typename Visit>
void GradientBoostedTrees::for_each_group(Visit&& visit) const {
  const std::size_t count = roots_.size();
  for (std::size_t t = 0; t < count; t += kTreeGroup) {
    // A short last group repeats its last tree; visit() is told how many
    // of the group's trees are real.
    std::int32_t roots[kTreeGroup];
    for (std::size_t k = 0; k < kTreeGroup; ++k) {
      roots[k] = roots_[std::min(t + k, count - 1)];
    }
    visit(roots, std::min(kTreeGroup, count - t));
  }
}

float GradientBoostedTrees::predict_proba(std::span<const float> x) const {
  REPRO_CHECK_MSG(x.size() == features_, "feature width mismatch");
  // Leaf values add in tree order 0..T-1, one float add each, so the
  // grouping never changes the sum.
  float z = base_score_;
  for_each_group([&](const std::int32_t* roots, std::size_t n) {
    std::int32_t leaf[kTreeGroup];
    route_group(roots, x.data(), leaf, nullptr);
    for (std::size_t k = 0; k < n; ++k) z += score_nodes_[leaf[k]].value;
  });
  return sigmoidf(z);
}

std::vector<float> GradientBoostedTrees::predict_proba_many(
    const Matrix& X) const {
  REPRO_CHECK_MSG(X.cols() == features_, "feature width mismatch");
  std::vector<float> out(X.rows(), base_score_);
  // Group-outer within each row block keeps one group's nodes hot across
  // the block. Per row the leaf values still add in tree order 0..T-1, as
  // in predict_proba, so both paths agree bitwise for any thread count.
  parallel_for(X.rows(), 256, [&](std::size_t begin, std::size_t end) {
    for_each_group([&](const std::int32_t* roots, std::size_t n) {
      for (std::size_t r = begin; r < end; ++r) {
        std::int32_t leaf[kTreeGroup];
        route_group(roots, X.row(r).data(), leaf, nullptr);
        for (std::size_t k = 0; k < n; ++k) {
          out[r] += score_nodes_[leaf[k]].value;
        }
      }
    });
    for (std::size_t r = begin; r < end; ++r) out[r] = sigmoidf(out[r]);
  });
  return out;
}

bool GradientBoostedTrees::explain(std::span<const float> x,
                                   std::span<double> contributions,
                                   double* bias) const {
  REPRO_CHECK_MSG(x.size() == features_, "feature width mismatch");
  REPRO_CHECK_MSG(contributions.size() == features_,
                  "contribution width mismatch");
  std::fill(contributions.begin(), contributions.end(), 0.0);
  const ScoreNode* nodes = score_nodes_.data();
  double b = base_score_;
  // The kernel routes the group and records its root -> leaf paths; the
  // value deltas are then charged tree by tree, root first, in the order
  // a one-tree-at-a-time walk would charge them. A split's children come
  // after it, so the path stops moving exactly at the leaf.
  std::vector<std::int32_t> path((depth_ + 1) * kTreeGroup);
  for_each_group([&](const std::int32_t* roots, std::size_t n) {
    std::int32_t leaf[kTreeGroup];
    route_group(roots, x.data(), leaf, path.data());
    for (std::size_t k = 0; k < n; ++k) {
      b += nodes[roots[k]].value;
      for (std::size_t l = 0; l < depth_; ++l) {
        const std::int32_t from = path[l * kTreeGroup + k];
        const std::int32_t to = path[(l + 1) * kTreeGroup + k];
        if (to == from) break;
        contributions[static_cast<std::size_t>(nodes[from].feature)] +=
            static_cast<double>(nodes[to].value) -
            static_cast<double>(nodes[from].value);
      }
    }
  });
  if (bias != nullptr) *bias = b;
  return true;
}

std::vector<double> GradientBoostedTrees::feature_importance() const {
  std::vector<double> imp(features_, 0.0);
  for (const Tree& t : trees_) {
    for (const Node& n : t.nodes) {
      if (n.feature >= 0) imp[static_cast<std::size_t>(n.feature)] += n.gain;
    }
  }
  return imp;
}

std::vector<std::pair<std::int32_t, float>> GradientBoostedTrees::tree_splits(
    std::size_t t) const {
  REPRO_CHECK(t < trees_.size());
  std::vector<std::pair<std::int32_t, float>> out;
  for (const Node& n : trees_[t].nodes) {
    if (n.feature >= 0) out.emplace_back(n.feature, n.threshold);
  }
  return out;
}

const std::vector<GradientBoostedTrees::Node>& GradientBoostedTrees::tree_nodes(
    std::size_t t) const {
  REPRO_CHECK(t < trees_.size());
  return trees_[t].nodes;
}

}  // namespace repro::ml
