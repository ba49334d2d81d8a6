#include "ml/random_forest.h"

#include <cmath>

#include "ml/histogram_reducer.h"
#include "ml/tree_walk.h"
#include "util/binary_io.h"
#include "util/parallel.h"
#include "util/random.h"

namespace mvg {

void RandomForestClassifier::FitBinned(const FeatureTable& ft,
                                       const std::vector<int>& y,
                                       const std::vector<size_t>& rows) {
  const std::vector<size_t> encoded = PrepareFitBinned(ft.num_rows(), y, rows);
  const size_t n = rows.size();
  const size_t d = ft.num_features();
  const size_t mtry = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(d))));

  // The tree engine reads labels by table row id; scatter the compact
  // encoding into a table-sized vector (rows outside the subset are never
  // visited).
  std::vector<size_t> y_table(ft.num_rows(), 0);
  for (size_t i = 0; i < n; ++i) y_table[rows[i]] = encoded[i];

  // Pre-assign every tree's seed and bootstrap rows from the master RNG in
  // tree order (draws in compact indexing, mapped to table ids), so the
  // fitted forest does not depend on how many executor workers later
  // share (or steal chunks of) the tree loop, nor on the pool size when
  // this fit runs nested inside a grid/stacking cell, and it matches any
  // caller presenting the same row subset.
  Rng rng(params_.seed);
  std::vector<uint64_t> tree_seeds(params_.num_trees);
  std::vector<std::vector<size_t>> tree_rows(params_.num_trees);
  for (size_t t = 0; t < params_.num_trees; ++t) {
    tree_seeds[t] = rng.engine()();
    std::vector<size_t>& trows = tree_rows[t];
    trows.resize(n);
    for (size_t i = 0; i < n; ++i) trows[i] = rows[rng.Index(n)];
  }

  // Distributed fits run the tree loop sequentially: every tree issues
  // allreduce rounds, and all ranks must reach them in the same order.
  const size_t tree_threads =
      params_.reducer != nullptr ? 1 : params_.num_threads;
  trees_.assign(params_.num_trees, DecisionTreeClassifier());
  ParallelFor(params_.num_trees, tree_threads, [&](size_t t) {
    DecisionTreeClassifier::Params tp;
    tp.max_depth = params_.max_depth;
    tp.max_features = mtry;
    tp.seed = tree_seeds[t];
    tp.reducer = params_.reducer;
    trees_[t] = DecisionTreeClassifier(tp);
    trees_[t].FitBinned(ft, y_table, encoder_.num_classes(), tree_rows[t]);
  });
}

std::vector<double> RandomForestClassifier::PredictProba(
    const std::vector<double>& x) const {
  std::vector<double> proba;
  PredictProbaInto(x, &proba);
  return proba;
}

void RandomForestClassifier::PredictProbaInto(
    const std::vector<double>& x, std::vector<double>* proba) const {
  proba->assign(encoder_.num_classes(), 0.0);
  if (trees_.empty()) return;
  double* acc = proba->data();
  const size_t k = proba->size();
  // The trees walk in lockstep and their leaves arrive in tree order, so
  // each class sums the trees' distributions in the same order as a
  // tree-by-tree loop.
  WalkTrees(
      trees_.size(), [this](size_t t) { return trees_[t].node_data(); },
      GoRightOnValue{x.data()},
      [&](size_t t, const DecisionTreeClassifier::Node& leaf) {
        const double* p = trees_[t].proba_data() + leaf.proba_begin;
        for (size_t c = 0; c < k; ++c) acc[c] += p[c];
      });
  for (size_t c = 0; c < k; ++c) acc[c] /= static_cast<double>(trees_.size());
}

std::unique_ptr<Classifier> RandomForestClassifier::Clone() const {
  return std::make_unique<RandomForestClassifier>(params_);
}

std::string RandomForestClassifier::Name() const {
  return "RandomForest(trees=" + std::to_string(params_.num_trees) +
         ",depth=" + std::to_string(params_.max_depth) + ")";
}

void RandomForestClassifier::SaveBinary(BinaryWriter* w) const {
  // Retired training slots hold the constants the trainer uses:
  // min_samples_leaf 1, max_features 0 (floor(sqrt(d))), bootstrap 1 and
  // max_bins 256.
  w->WriteSize(params_.num_trees);
  w->WriteSize(params_.max_depth);
  w->WriteSize(1);
  w->WriteSize(0);
  w->WriteBool(true);
  w->WriteU64(params_.seed);
  w->WriteU8(0);  // reserved: the retired split-mode byte.
  w->WriteSize(FeatureTable::kMaxBins);
  SaveEncoder(w);
  w->WriteSize(trees_.size());
  for (const DecisionTreeClassifier& tree : trees_) tree.SaveBinary(w);
}

void RandomForestClassifier::LoadBinary(BinaryReader* r) {
  // The retired training slots are read past: the stored trees alone
  // decide predictions.
  params_.num_trees = r->ReadSize();
  params_.max_depth = r->ReadSize();
  r->ReadSize();  // min_samples_leaf
  r->ReadSize();  // max_features
  SkipRetiredFlag(r, "RandomForest bootstrap");
  params_.seed = r->ReadU64();
  SkipRetiredFlag(r, "RandomForest split mode");
  r->ReadSize();  // max_bins
  LoadEncoder(r);
  const size_t count = r->ReadSize();
  // Each tree body opens with four u64 hyper-parameters.
  if (count > r->remaining() / 32) {
    throw SerializationError("RandomForest: tree count exceeds section");
  }
  trees_.assign(count, DecisionTreeClassifier());
  for (DecisionTreeClassifier& tree : trees_) {
    tree.LoadBinary(r);
    // PredictProba walks every tree from node 0 and reads a full
    // forest-width distribution at its leaf.
    if (tree.node_count() == 0) {
      throw SerializationError("RandomForest: tree without nodes");
    }
    if (tree.leaf_width() != encoder_.num_classes()) {
      throw SerializationError(
          "RandomForest: tree distribution width " +
          std::to_string(tree.leaf_width()) + " != num_classes " +
          std::to_string(encoder_.num_classes()));
    }
  }
}

}  // namespace mvg
