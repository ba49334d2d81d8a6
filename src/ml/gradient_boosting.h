#ifndef MVG_ML_GRADIENT_BOOSTING_H_
#define MVG_ML_GRADIENT_BOOSTING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/feature_table.h"

namespace mvg {

class HistogramReducer;

/// Second-order gradient-boosted trees in the style of XGBoost (paper
/// ref. [8]) — the paper's primary classifier.
///
/// Implements: logistic loss (binary) and softmax (multiclass, one tree per
/// class per round); greedy splits maximising the regularised gain
///   0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda))
/// with XGBoost's defaults, lambda = 1 and no minimum split gain (gamma =
/// 0); leaf weights -G/(H+lambda); shrinkage (`learning_rate`); row
/// subsampling and per-tree column subsampling (the paper fixes both at
/// 0.5 to prevent overfitting); and gain-based feature importances (used
/// for Fig. 10).
///
/// Split finding runs on quantile-binned gradient/hessian histograms: the
/// FeatureTable is built once per Fit (Fit/FitOnRows bin the matrix rows
/// and run the FitBinned body), each node scans only its smaller child and
/// derives the sibling by subtraction, and rows are partitioned in place.
/// Every per-row gradient and hessian is quantized once to int64 fixed
/// point (ml/hist_kernels.h), and histograms, sibling subtraction, node
/// totals and the split search's prefix sums add integers, which is exact:
/// an in-process fit is a distributed fit at world 1.
/// The per-node search over the histogram is NodeSplitSearch
/// (ml/hist_kernels.h): per column, an exact prefix pass compacts the
/// boundaries whose bin holds rows without branching on the data, the
/// gains of four boundaries are computed per vector, and a running max
/// picks the first strict improvement in (column, bin) order — bit for
/// bit the choice of the plain scalar loop (tests/split_search_oracle.h).
/// Node histogram slabs come from NodeHistogramPool, which hands them to
/// a per-thread cache when a tree is done, so consecutive trees on a
/// thread reuse them instead of allocating and zeroing their own.
/// Within a boosting round the per-class trees are fitted in parallel
/// (`num_threads`); per-tree column draws are pre-assigned so results are
/// identical for every thread count. Prediction and the per-round logit
/// update walk the trees with WalkTrees (ml/tree_walk.h), a group of
/// consecutive trees in lockstep, adding leaf weights in tree order.
class GradientBoostingClassifier : public BinnedClassifier {
 public:
  struct Params {
    double learning_rate = 0.1;
    size_t num_rounds = 50;
    size_t max_depth = 4;
    double min_child_weight = 1.0;
    double subsample = 1.0;       ///< Row sampling per round.
    double colsample = 1.0;       ///< Column sampling per tree.
    uint64_t seed = 42;
    /// Worker threads (per-class trees within a round, per-sample loss
    /// loops); results are identical for every value. Runtime knob only —
    /// not serialized.
    size_t num_threads = 1;
    /// Distributed histogram-merge seam (runtime-only, never serialized).
    /// When set, each rank accumulates its owned row slice, and histograms
    /// and node totals are allreduced before split finding — the fitted
    /// model is bit-identical to the in-process fit for any worker count.
    /// Forces the per-class tree loop sequential so the collectives issue
    /// in the same order on every rank. Not owned.
    HistogramReducer* reducer = nullptr;
  };

  GradientBoostingClassifier() = default;
  explicit GradientBoostingClassifier(Params params) : params_(params) {}

  /// Trains directly on a pre-binned FeatureTable (row subset `rows`, ids
  /// in table indexing) without ever touching a double feature matrix —
  /// the streaming-pipeline entry point, and the body of Fit/FitOnRows.
  /// Gradient/hessian buffers are table-indexed so the histogram engine
  /// and the distributed row ownership arithmetic operate on table ids
  /// unchanged. The fitted trees store the cut
  /// thresholds, so prediction on raw features is unchanged; training-time
  /// logit updates descend on bin ids, which routes rows identically
  /// (bin <= b is exactly value <= threshold(f, b)).
  void FitBinned(const FeatureTable& ft, const std::vector<int>& y,
                 const std::vector<size_t>& rows) override;
  std::vector<double> PredictProba(const std::vector<double>& x) const override;
  void PredictProbaInto(const std::vector<double>& x,
                        std::vector<double>* proba) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  void SaveBinary(BinaryWriter* w) const override;
  void LoadBinary(BinaryReader* r) override;

  /// Flat POD regression-tree node — 32 bytes, fixed layout. Like
  /// DecisionTreeClassifier::Node this struct doubles as the v3 on-disk
  /// record (fields serialized in declaration order are, on little-endian
  /// hosts, exactly this memory layout), so an mmap'd v3 model's node
  /// array is viewed in place. Append-only: changing the layout is a
  /// model-format version bump.
  struct TreeNode {
    double threshold = 0.0;
    double weight = 0.0;    ///< leaf output.
    int32_t feature = -1;   ///< -1 marks a leaf.
    int32_t left = -1, right = -1;
    int32_t pad = 0;        ///< keeps sizeof == 32; always zero on disk.
  };
  static_assert(sizeof(TreeNode) == 32, "TreeNode is the on-disk v3 record");

  /// Total split gain accumulated per feature across all trees; the
  /// importance ranking used in the paper's case study (Fig. 10).
  const std::vector<double>& FeatureGains() const { return feature_gain_; }

  /// Indices of the `k` highest-gain features, descending.
  std::vector<size_t> TopFeatures(size_t k) const;

  const Params& params() const { return params_; }

  /// The per-round boosting update: logits[i][out] += lr * trees[out](row
  /// i) for every output of the round. Rows descend on bin ids
  /// (ft.bin(f, r) <= node_bins[out][node], exactly the partition the
  /// builder applied), so no double features are needed during training;
  /// the round's trees walk in lockstep (ml/tree_walk.h). Each row is
  /// independent and each output gets one add per round, so the result
  /// is bit-identical for every thread count and to a tree-by-tree loop.
  /// Public so tests can pin it against the scalar descent.
  static void UpdateLogitsWithRoundBinned(
      const std::vector<std::vector<TreeNode>>& trees,
      const std::vector<std::vector<uint16_t>>& node_bins,
      const FeatureTable& ft, const std::vector<size_t>& rows_global,
      double lr, Matrix* logits, size_t num_threads);

 private:
  using Tree = std::vector<TreeNode>;

  struct HistBuilder;  // histogram split engine; defined in the .cc.

  /// Appends `tree` to the flat storage and records its offset.
  void AppendTree(const Tree& tree);

  /// Node storage accessors — owned (nodes_) or a zero-copy view into an
  /// externally-owned buffer (v3 mmap load; the buffer must outlive the
  /// model — the serving session keeps the mapping alive). Tree t of round
  /// rd starts at tree_offsets_[rd * trees_per_round_ + t].
  const TreeNode* node_data() const {
    return nodes_view_ != nullptr ? nodes_view_ : nodes_.data();
  }
  size_t node_count() const {
    return nodes_view_ != nullptr ? nodes_view_count_ : nodes_.size();
  }

  void ResetStorage() {
    nodes_.clear();
    tree_offsets_.assign(1, 0);
    num_rounds_ = 0;
    trees_per_round_ = 0;
    nodes_view_ = nullptr;
    nodes_view_count_ = 0;
  }

  /// Validates the flat node storage against tree_offsets_, with split
  /// features below both num_features_ and `feature_bound`; throws
  /// SerializationError.
  void ValidateTrees(size_t feature_bound) const;

  Params params_;
  size_t num_features_ = 0;
  /// Every tree of every round concatenated round-major (round 0's trees
  /// in class order, then round 1's, ...): one flat POD array is both the
  /// training output and, bit for bit, the v3 on-disk node section — the
  /// xgboost-style layout that makes zero-copy serving possible. For
  /// binary classification there is a single tree per round driving the
  /// positive-class logit.
  std::vector<TreeNode> nodes_;
  std::vector<uint64_t> tree_offsets_ = {0};  ///< per-tree start; back() = total.
  size_t num_rounds_ = 0;
  size_t trees_per_round_ = 0;
  const TreeNode* nodes_view_ = nullptr;  ///< non-null in view mode.
  size_t nodes_view_count_ = 0;
  std::vector<double> base_score_;  ///< initial logit per class.
  std::vector<double> feature_gain_;
};

}  // namespace mvg

#endif  // MVG_ML_GRADIENT_BOOSTING_H_
