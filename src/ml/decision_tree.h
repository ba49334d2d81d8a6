#ifndef MVG_ML_DECISION_TREE_H_
#define MVG_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/feature_table.h"

namespace mvg {

class HistogramReducer;

/// CART classification tree: greedy binary splits on axis-aligned
/// thresholds minimising Gini impurity. Supports per-node random feature
/// subsampling (`max_features`) so it doubles as the Random Forest base
/// learner. A node splits while it holds two or more classes, and every
/// split leaves at least one row on each side.
///
/// Split finding runs on quantile-binned histograms: features are
/// quantized once into <= 256 bins by a FeatureTable, each node scans the
/// per-bin class histograms of its candidate features (all of them, or
/// its `max_features` sample) from its own rows instead of re-sorting raw
/// values, and rows are partitioned in place inside one shared index
/// buffer. Fit/FitOnRows bin the matrix rows and train through FitBinned,
/// so every entry point runs the same engine.
class DecisionTreeClassifier : public BinnedClassifier {
 public:
  struct Params {
    size_t max_depth = 16;
    /// Number of features examined per split; 0 = all features.
    size_t max_features = 0;
    uint64_t seed = 42;  ///< For feature subsampling.
    /// Distributed histogram-merge seam (runtime-only, never serialized).
    /// When set, this rank counts only its owned slice of the rows and
    /// the int64 node histograms and totals are allreduced before split
    /// finding. Counts are exact, so the reducer adds only those calls:
    /// the tree is bit-identical to the in-process fit for any worker
    /// count. Not owned.
    HistogramReducer* reducer = nullptr;
  };

  DecisionTreeClassifier() = default;
  explicit DecisionTreeClassifier(Params params) : params_(params) {}

  /// Trains on the row subset `rows` of a pre-binned FeatureTable (the
  /// streaming path, and the body of Fit/FitOnRows).
  void FitBinned(const FeatureTable& ft, const std::vector<int>& y,
                 const std::vector<size_t>& rows) override;
  std::vector<double> PredictProba(const std::vector<double>& x) const override;
  void PredictProbaInto(const std::vector<double>& x,
                        std::vector<double>* proba) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  void SaveBinary(BinaryWriter* w) const override;
  void LoadBinary(BinaryReader* r) override;

  /// Training entry point on a prebuilt (shared, read-only) FeatureTable
  /// with encoded labels: `rows` are compact FeatureTable indices
  /// (duplicates allowed — bootstrap), `y_compact` is indexed by compact
  /// row. This is what RandomForest uses so the binning cost is paid once
  /// per forest, not once per tree.
  void FitBinned(const FeatureTable& ft, const std::vector<size_t>& y_compact,
                 size_t num_classes, const std::vector<size_t>& rows);

  /// Flat POD node — 24 bytes, fixed layout. This struct doubles as the
  /// v3 on-disk record (each field serialized in declaration order is, on
  /// a little-endian host, exactly this memory layout), which is what lets
  /// a v3 model file's node array be *viewed* over an mmap instead of
  /// deserialized node by node. Leaf distributions live out-of-line in one
  /// flat double array (`proba_begin` indexes it) for the same reason.
  /// Append-only: changing this layout is a model-format version bump.
  struct Node {
    double threshold = 0.0;     ///< go left iff x[feature] <= threshold.
    int32_t feature = -1;       ///< -1 marks a leaf.
    int32_t left = -1, right = -1;
    int32_t proba_begin = -1;   ///< leaf: start index into the proba array.
  };
  static_assert(sizeof(Node) == 24, "Node is the on-disk v3 record");

  /// Tree size diagnostics.
  size_t NumNodes() const { return node_count(); }
  size_t Depth() const;

  const Params& params() const { return params_; }

  /// Entries per leaf distribution (the class count the tree was fitted
  /// with; a forest's trees use the forest's).
  size_t leaf_width() const { return num_classes_internal_; }

  /// Node/leaf-distribution storage, owned (nodes_/leaf_proba_) or a
  /// zero-copy view into an externally-owned buffer (v3 mmap load; the
  /// buffer must outlive the tree — the serving session keeps the mapping
  /// alive).
  const Node* node_data() const {
    return nodes_view_ != nullptr ? nodes_view_ : nodes_.data();
  }
  size_t node_count() const {
    return nodes_view_ != nullptr ? nodes_view_count_ : nodes_.size();
  }
  const double* proba_data() const {
    return proba_view_ != nullptr ? proba_view_ : leaf_proba_.data();
  }
  size_t proba_count() const {
    return proba_view_ != nullptr ? proba_view_count_ : leaf_proba_.size();
  }

 private:
  struct HistBuilder;  // histogram split engine; defined in the .cc.

  void ResetStorage() {
    nodes_.clear();
    leaf_proba_.clear();
    nodes_view_ = nullptr;
    nodes_view_count_ = 0;
    proba_view_ = nullptr;
    proba_view_count_ = 0;
  }

  Params params_;
  size_t num_classes_internal_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> leaf_proba_;  ///< concatenated leaf distributions.
  const Node* nodes_view_ = nullptr;
  size_t nodes_view_count_ = 0;
  const double* proba_view_ = nullptr;
  size_t proba_view_count_ = 0;
};

}  // namespace mvg

#endif  // MVG_ML_DECISION_TREE_H_
