// Gradient Boosted Decision Trees with logistic loss — the paper's best
// model (F1 = 0.81 on DS1, Table II / Fig 10).
//
// Implementation: histogram-based regression trees boosted on the
// second-order (Newton) approximation of the logistic loss, in the style of
// LightGBM/XGBoost:
//   - features are quantile-binned once into uint8 codes (<= 255 bins),
//     stored column-major with per-feature tight bin counts; non-finite
//     values are rejected (CheckError naming the row and feature);
//   - each tree grows depth-wise over one shared row-index buffer: a node
//     is a contiguous [begin, end) range, and splitting stably partitions
//     the range in place (no per-node row copies);
//   - per node, gradient/hessian histograms over the binned features give
//     every candidate split; only the smaller child of a split builds its
//     histogram from rows — the sibling is derived by subtracting it from
//     the cached parent histogram, halving per-level histogram work;
//   - one level kernel per depth: the directly built nodes' g/h are first
//     gathered into a buffer aligned with the row index ("ordered
//     gradients"); then one parallel region runs a task per (sibling pair,
//     group of 8 splittable features) that accumulates the group's slices
//     in one pass over the node's rows (8 independent bin-update chains
//     per row), derives the sibling's slices by subtraction and finds each
//     feature's best split on both nodes; a serial reduce in ascending
//     feature order picks each node's split;
//   - split gain = 1/2 [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma;
//   - leaf value = -G/(H+l) (one Newton step), scaled by the learning rate;
//   - training scores update by leaf-indexed lookup for in-subsample rows
//     (their leaf is known from partitioning) and by uint8 binned-code
//     traversal for rows outside the subsample;
//   - inference (predict_proba, predict_proba_many, explain) reads only a
//     compact 16-byte copy of every node and routes a row through a group
//     of 16 trees at once, one branchless step per tree per level
//     (left + !(x <= threshold): children are adjacent, NaN goes right, a
//     leaf's NaN threshold and left = self - 1 keep it in place), for as
//     many levels as the forest's deepest leaf; leaf values add in tree
//     order, and explain charges its path deltas tree by tree, so results
//     equal a one-tree-at-a-time walk bit for bit.
//
// Determinism: every histogram cell sums its rows in ascending order within
// a fixed chunk grid and adds the chunk partials in chunk order, sibling
// derivation is a pure function of the parent and the directly-built
// child, the split reduce keeps the (feature, bin) scan's tie-breaking,
// and every parallel phase writes disjoint state — so fitted models are
// bit-identical for any REPRO_THREADS (see DESIGN.md §6b).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ml/model.hpp"

namespace repro::ml {

/// Column-major binned view of a feature matrix with per-feature tight bin
/// counts. `offsets` maps each feature to its slice of a packed histogram:
/// feature f owns histogram bins [offsets[f], offsets[f+1]). Features that
/// cannot split (fewer than 2 bins) get a zero-width slice so histograms
/// never spend memory or bandwidth on them; their codes are still stored.
struct BinnedColumns {
  std::vector<std::uint8_t> codes;     ///< codes[f * rows + r]
  std::vector<std::uint32_t> offsets;  ///< size features + 1
  std::size_t rows = 0;
  std::size_t features = 0;

  /// Total packed histogram width (sum of splittable features' bin counts).
  [[nodiscard]] std::size_t total_bins() const noexcept {
    return offsets.empty() ? 0 : offsets.back();
  }
  [[nodiscard]] const std::uint8_t* column(std::size_t f) const noexcept {
    return codes.data() + f * rows;
  }
};

/// Quantile binning of a float feature matrix into uint8 codes.
class FeatureBinner {
 public:
  static constexpr std::size_t kMaxBins = 255;

  /// Learns per-feature cut points from (a subsample of) X. Throws
  /// CheckError on a non-finite sampled value.
  void fit(const Matrix& X, std::size_t max_bins = kMaxBins,
           std::size_t sample_rows = 20'000, std::uint64_t seed = 99);

  [[nodiscard]] bool fitted() const noexcept { return !edges_.empty(); }
  [[nodiscard]] std::size_t features() const noexcept { return edges_.size(); }
  [[nodiscard]] std::size_t bins(std::size_t feature) const;

  /// Bin code of a raw value: number of edges strictly below the value.
  [[nodiscard]] std::uint8_t code(std::size_t feature, float value) const;

  /// Upper edge of a bin (values with code <= c satisfy value <= edge(c)).
  [[nodiscard]] float upper_edge(std::size_t feature, std::uint8_t c) const;

  /// Binned copy of a matrix (row-major codes).
  [[nodiscard]] std::vector<std::uint8_t> transform(const Matrix& X) const;

  /// Column-major binned copy with per-feature packed histogram offsets.
  /// Throws CheckError naming the row and feature of a non-finite value.
  [[nodiscard]] BinnedColumns transform_columns(const Matrix& X) const;

 private:
  // edges_[f] are ascending interior cut points; bin count = edges+1.
  std::vector<std::vector<float>> edges_;
};

class GradientBoostedTrees final : public Model {
 public:
  struct Params {
    std::size_t trees = 250;
    std::size_t max_depth = 6;
    double learning_rate = 0.1;
    double lambda = 1.0;           ///< L2 on leaf values
    double gamma = 0.0;            ///< min gain to split
    double min_child_hessian = 1.0;
    double subsample = 0.9;        ///< row subsample per tree
    double pos_weight = 3.5;       ///< positive-class weight (recall knob)
    std::size_t max_bins = 255;
  };

  explicit GradientBoostedTrees(std::uint64_t seed = 1234);
  explicit GradientBoostedTrees(const Params& params,
                                std::uint64_t seed = 1234);

  void fit(const Dataset& train) override;
  [[nodiscard]] float predict_proba(std::span<const float> x) const override;
  [[nodiscard]] std::vector<float> predict_proba_many(
      const Matrix& X) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "GBDT";
  }

  /// Path-based (Saabas) attribution: every node carries its own Newton
  /// value, and walking root -> leaf charges value(child) - value(parent)
  /// to the split feature, so bias + sum(contributions) equals the exact
  /// log-odds score predict_proba would sigmoid.
  bool explain(std::span<const float> x, std::span<double> contributions,
               double* bias) const override;

  /// Total split gain per feature (valid after fit); larger = more used.
  [[nodiscard]] std::vector<double> feature_importance() const;

  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.size();
  }

  /// (feature, threshold) of every split node of tree t, in node order.
  /// Test/debug introspection for checking against reference engines.
  [[nodiscard]] std::vector<std::pair<std::int32_t, float>> tree_splits(
      std::size_t t) const;

  struct Node {
    std::int32_t feature = -1;   ///< -1 for leaves
    float threshold = 0.0f;      ///< go left when value <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;     ///< always left + 1 (inference relies on it)
    /// Newton value of the node's sample set. Prediction output for
    /// leaves; on split nodes it only feeds explain()'s path attribution
    /// (predict never reads it there).
    float value = 0.0f;
    std::uint8_t code = 0;       ///< split bin: go left when code <= this
    double gain = 0.0;           ///< split gain (for importance)
  };

  /// Every node of tree t in node order (test introspection: pins a
  /// fitted model bit for bit).
  [[nodiscard]] const std::vector<Node>& tree_nodes(std::size_t t) const;

 private:
  struct Tree {
    std::vector<Node> nodes;
    /// Leaf value of a training row, routed over binned codes (uint8
    /// compares; the same routing as the float thresholds).
    [[nodiscard]] float predict_binned(const BinnedColumns& binned,
                                       std::size_t row) const noexcept;
  };
  /// A fitted leaf's contiguous slice of the shared row-index buffer.
  struct LeafRange {
    std::size_t begin = 0, end = 0;
    float value = 0.0f;
  };

  /// Inference's 16-byte copy of a node, indexed forest-wide. A leaf has
  /// feature 0, a NaN threshold and left = its own index - 1, so the
  /// routing step `left + !(x <= threshold)` keeps it in place.
  struct ScoreNode {
    std::int32_t feature;
    float threshold;
    std::int32_t left;
    float value;
  };

  struct FitScratch;

  /// Appends a fitted tree's nodes to score_nodes_ and its root to roots_.
  void append_score_nodes(const Tree& tree);
  /// Calls visit(roots, n) for each group of consecutive trees in tree
  /// order: roots[k] is the group's k-th root in score_nodes_, and the
  /// first n are real (a short last group repeats its last tree).
  template <typename Visit>
  void for_each_group(Visit&& visit) const;
  /// The inference kernel: routes x through one group from its roots to
  /// its leaves (at[k]); a non-null `path` records every level's nodes.
  inline void route_group(const std::int32_t* roots, const float* x,
                          std::int32_t* at, std::int32_t* path) const;

  Tree build_tree(const BinnedColumns& binned,
                  std::vector<std::size_t>& row_index,
                  const std::vector<float>& grad,
                  const std::vector<float>& hess, FitScratch& scratch,
                  std::vector<LeafRange>& leaves);

  Params params_;
  Rng rng_;
  FeatureBinner binner_;
  std::vector<Tree> trees_;
  float base_score_ = 0.0f;  ///< prior log-odds
  std::size_t features_ = 0;
  std::size_t depth_ = 0;    ///< deepest leaf of any tree (levels below root)
  /// Every tree's nodes as inference reads them, tree after tree.
  std::vector<ScoreNode> score_nodes_;
  std::vector<std::int32_t> roots_;  ///< each tree's root in score_nodes_
};

}  // namespace repro::ml
