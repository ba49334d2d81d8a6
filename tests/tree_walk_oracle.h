#ifndef MVG_TESTS_TREE_WALK_ORACLE_H_
#define MVG_TESTS_TREE_WALK_ORACLE_H_

// Reference for the lockstep tree walker (ml/tree_walk.h): the plain
// scalar descent every model ran before it — one tree at a time, one
// data-dependent branch per node — plus the probability arithmetic of
// each model family on top of it. The walker must land every row on the
// same leaf and every model must return the same probability bits.
//
// Also here: model bodies written straight in the v3 layout, so a test
// can load any tree shape (deep, lopsided, single-leaf; the trainers only
// grow what their params allow) as an owned model or as an in-place view.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/feature_table.h"
#include "ml/gradient_boosting.h"
#include "util/binary_io.h"

namespace mvg {
namespace testutil {

using GbtNode = GradientBoostingClassifier::TreeNode;
using DtNode = DecisionTreeClassifier::Node;

/// Today's scalar descent on raw features: index of the leaf x reaches.
template <typename Node>
int32_t ScalarLeaf(const Node* nodes, const std::vector<double>& x) {
  int32_t cur = 0;
  while (nodes[cur].feature >= 0) {
    const Node& node = nodes[cur];
    cur = x[static_cast<size_t>(node.feature)] <= node.threshold ? node.left
                                                                 : node.right;
  }
  return cur;
}

/// Today's scalar descent on bin ids (the GBT training-time update).
inline int32_t ScalarLeafBinned(const GbtNode* nodes, const uint16_t* bins,
                                const FeatureTable& ft, size_t r) {
  int32_t cur = 0;
  while (nodes[cur].feature >= 0) {
    const GbtNode& nd = nodes[cur];
    cur = ft.bin(static_cast<size_t>(nd.feature), r) <=
                  static_cast<uint8_t>(bins[cur])
              ? nd.left
              : nd.right;
  }
  return cur;
}

/// A GBT model as plain data: trees in flat round-major order.
struct GbtSpec {
  size_t num_classes = 2;  ///< >= 2; one tree per round when 2.
  size_t num_features = 1;
  double learning_rate = 0.1;
  std::vector<double> base_score;  ///< one per tree of a round.
  std::vector<std::vector<GbtNode>> trees;

  size_t trees_per_round() const { return num_classes == 2 ? 1 : num_classes; }
};

/// GradientBoostingClassifier::PredictProba as it was before the walker:
/// round by round, class by class, then sigmoid or softmax.
inline std::vector<double> OracleGbtProba(const GbtSpec& m,
                                          const std::vector<double>& x) {
  std::vector<double> logits = m.base_score;
  const size_t per_round = m.trees_per_round();
  for (size_t t = 0; t < m.trees.size(); ++t) {
    const GbtNode* nodes = m.trees[t].data();
    logits[t % per_round] +=
        m.learning_rate * nodes[ScalarLeaf(nodes, x)].weight;
  }
  if (m.num_classes == 2) {
    const double p1 = 1.0 / (1.0 + std::exp(-logits[0]));
    return {1.0 - p1, p1};
  }
  double mx = logits[0];
  for (double v : logits) mx = std::max(mx, v);
  std::vector<double> p(logits.size());
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

/// A decision tree as plain data: nodes plus the flat leaf distributions.
struct DtSpec {
  size_t num_classes = 2;
  std::vector<DtNode> nodes;
  std::vector<double> proba;
};

inline std::vector<double> OracleDtProba(const DtSpec& t,
                                         const std::vector<double>& x) {
  const double* p =
      t.proba.data() + t.nodes[ScalarLeaf(t.nodes.data(), x)].proba_begin;
  return std::vector<double>(p, p + t.num_classes);
}

/// RandomForestClassifier::PredictProba as it was: per-tree vectors
/// summed in tree order, then divided by the tree count.
inline std::vector<double> OracleRfProba(const std::vector<DtSpec>& trees,
                                         const std::vector<double>& x) {
  std::vector<double> acc(trees.front().num_classes, 0.0);
  for (const DtSpec& t : trees) {
    const std::vector<double> p = OracleDtProba(t, x);
    for (size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (double& v : acc) v /= static_cast<double>(trees.size());
  return acc;
}

inline std::vector<int> ClassLabels(size_t k) {
  std::vector<int> classes(k);
  std::iota(classes.begin(), classes.end(), 0);
  return classes;
}

/// Writes `nodes` field by field in the little-endian v3 record layout.
inline void WriteGbtNodes(const std::vector<GbtNode>& nodes, BinaryWriter* w) {
  for (const GbtNode& n : nodes) {
    w->WriteDouble(n.threshold);
    w->WriteDouble(n.weight);
    w->WriteI32(n.feature);
    w->WriteI32(n.left);
    w->WriteI32(n.right);
    w->WriteI32(0);
  }
}

/// GradientBoostingClassifier body up to the tree section (params,
/// encoder, base scores, gains), for tests that craft the tree section.
inline void WriteGbtHeader(const GbtSpec& m, BinaryWriter* w) {
  w->WriteDouble(m.learning_rate);
  w->WriteSize(m.trees.size() / m.trees_per_round());  // params.num_rounds
  w->WriteSize(64);                                    // max_depth
  for (int i = 0; i < 5; ++i) w->WriteDouble(1.0);     // lambda .. colsample
  w->WriteU64(42);
  w->WriteU8(0);
  w->WriteSize(FeatureTable::kMaxBins);
  w->WriteIntVec(ClassLabels(m.num_classes));
  w->WriteSize(m.num_features);
  w->WriteDoubleVec(m.base_score);
  w->WriteDoubleVec(std::vector<double>(m.num_features, 0.0));
}

/// GradientBoostingClassifier body (the SaveBinary layout).
inline void WriteGbtBody(const GbtSpec& m, BinaryWriter* w) {
  WriteGbtHeader(m, w);
  w->WriteSize(m.trees.size() / m.trees_per_round());
  w->WriteSize(m.trees_per_round());
  size_t total = 0;
  for (const auto& t : m.trees) total += t.size();
  w->WriteSize(total);
  for (const auto& t : m.trees) w->WriteU64(t.size());
  w->AlignTo(8);
  for (const auto& t : m.trees) WriteGbtNodes(t, w);
}

/// DecisionTreeClassifier body (the SaveBinary layout). `with_encoder`
/// is false for a forest's trees, which carry no encoder of their own.
inline void WriteDtBody(const DtSpec& t, bool with_encoder, BinaryWriter* w) {
  for (int i = 0; i < 4; ++i) w->WriteSize(1);  // depth, leaf, split, mtry
  w->WriteBool(false);
  w->WriteU64(7);
  w->WriteU8(0);
  w->WriteSize(FeatureTable::kMaxBins);
  w->WriteIntVec(with_encoder ? ClassLabels(t.num_classes)
                             : std::vector<int>{});
  w->WriteSize(t.num_classes);
  w->WriteSize(t.nodes.size());
  w->WriteSize(t.proba.size());
  w->AlignTo(8);
  for (const DtNode& n : t.nodes) {
    w->WriteDouble(n.threshold);
    w->WriteI32(n.feature);
    w->WriteI32(n.left);
    w->WriteI32(n.right);
    w->WriteI32(n.proba_begin);
  }
  for (double p : t.proba) w->WriteDouble(p);
}

/// RandomForestClassifier body up to its tree count.
inline void WriteRfHeader(size_t num_trees, size_t num_classes,
                          BinaryWriter* w) {
  w->WriteSize(num_trees);
  for (int i = 0; i < 3; ++i) w->WriteSize(1);  // depth, leaf, mtry
  w->WriteBool(true);
  w->WriteU64(42);
  w->WriteU8(0);
  w->WriteSize(FeatureTable::kMaxBins);
  w->WriteIntVec(ClassLabels(num_classes));
}

/// RandomForestClassifier body over `trees`.
inline void WriteRfBody(const std::vector<DtSpec>& trees, BinaryWriter* w) {
  WriteRfHeader(trees.size(), trees.front().num_classes, w);
  w->WriteSize(trees.size());
  for (const DtSpec& t : trees) WriteDtBody(t, false, w);
}

/// An 8-byte-aligned copy of a serialized body — the alignment an mmap'd
/// model section has — that outlives the views loaded from it.
class AlignedBody {
 public:
  explicit AlignedBody(const std::string& bytes)
      : size_(bytes.size()), words_((bytes.size() + 7) / 8) {
    std::memcpy(words_.data(), bytes.data(), bytes.size());
  }

  /// Loads `model` as an in-place view over this buffer.
  template <typename Model>
  void LoadView(Model* model) const {
    BinaryReader r(words_.data(), size_);
    r.set_zero_copy(true);
    model->LoadBinary(&r);
  }

  const void* data() const { return words_.data(); }
  void* mutable_data() { return words_.data(); }
  size_t size() const { return size_; }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

/// Loads `model` from a copy of `bytes` (owned storage).
template <typename Model>
void LoadOwned(const std::string& bytes, Model* model) {
  BinaryReader r(bytes);
  model->LoadBinary(&r);
}

}  // namespace testutil
}  // namespace mvg

#endif  // MVG_TESTS_TREE_WALK_ORACLE_H_
