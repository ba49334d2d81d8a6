#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "ml/hist_kernels.h"
#include "ml/histogram_reducer.h"
#include "ml/tree_walk.h"
#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/parallel.h"
#include "util/random.h"

namespace mvg {

namespace {

/// Numerically stable softmax, allocation-free (the fused gradient pass
/// calls this once per row per round). `p` may alias `logits`: each entry
/// is read before it is written.
void SoftmaxInto(const double* logits, size_t k, double* p) {
  double mx = logits[0];
  for (size_t i = 1; i < k; ++i) mx = std::max(mx, logits[i]);
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (size_t i = 0; i < k; ++i) p[i] /= sum;
}

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// L2 regularisation on leaf weights (XGBoost's default). Splits need no
/// minimum gain beyond the 1e-12 floor.
constexpr double kLambda = 1.0;

}  // namespace

// ---------------------------------------------------------------------------
// Histogram split engine for the regression trees: per (column, bin) sums
// of gradients and hessians. One shared row-index buffer is partitioned in
// place (as in the classification tree), and node histograms come from a
// free-list pool: only the smaller child is scanned and its sibling is
// derived by subtraction, over the tree's `cols` subset (column sampling
// is per tree, so the subset is consistent across parent and children and
// the subtraction trick stays valid).
// ---------------------------------------------------------------------------

struct GradientBoostingClassifier::HistBuilder {
  const FeatureTable& ft;
  /// Row-interleaved fixed-point gradients/hessians (ml/hist_kernels.h):
  /// gh[2r] = grad(r), gh[2r+1] = hess(r). One cache line serves both
  /// halves of a row, and the scan's paired cell update is a single
  /// two-lane integer add.
  const std::vector<int64_t>& gh;
  const Params& params;
  const std::vector<size_t>& cols;
  Tree* tree;
  std::vector<double>* gains;
  /// Per node (aligned with tree->push_back order) the split's bin id — 0
  /// for leaves — so the binned logit update can descend without double
  /// features.
  std::vector<uint16_t>* node_bins;

  std::vector<size_t> rows;
  std::vector<size_t> scratch;
  RowStage stage;  ///< 32-bit staged rows for the scans.
  std::vector<SplitSlot> slots;  ///< slot j = cols[j], refilled per node.
  SplitScratch split;            ///< NodeSplitSearch's compaction buffers.
  /// Shared pool machinery (free list, all-zero invariant, dirty-span
  /// bookkeeping, sibling subtraction); slot j = cols[j], 2 int64 cells
  /// per bin (grad, hess).
  NodeHistogramPool hpool;

  /// Distributed mode (red != nullptr): this rank adds only the table
  /// rows in [own_begin, own_end), and every histogram and node total is
  /// allreduced. Without a reducer the fit is world 1 and owns every row:
  /// the sums are exact, so both are the same arithmetic.
  HistogramReducer* red = nullptr;
  size_t own_begin = 0, own_end = 0;

  HistBuilder(const FeatureTable& ft_in, const std::vector<int64_t>& gh_in,
              const Params& params_in, const std::vector<size_t>& cols_in,
              Tree* tree_in, std::vector<double>* gains_in,
              std::vector<uint16_t>* node_bins_in)
      : ft(ft_in), gh(gh_in), params(params_in), cols(cols_in), tree(tree_in),
        gains(gains_in), node_bins(node_bins_in), slots(cols_in.size()),
        hpool(ft_in, cols_in, 2), red(params_in.reducer),
        own_end(ft_in.num_rows()) {
    if (red != nullptr) {
      own_begin = OwnedRowsBegin(ft.num_rows(), red->rank(), red->world_size());
      own_end = OwnedRowsEnd(ft.num_rows(), red->rank(), red->world_size());
    }
  }

  /// Accumulates the (grad, hess) sums of the owned rows among
  /// rows[begin, end) into buffer `buf` (all-zero by the pool invariant),
  /// recording the dirty spans. With a reducer the buffer is then summed
  /// across ranks, and any bin may hold another rank's rows, so every span
  /// widens to its full slot. The collective makes Scan order-sensitive:
  /// every rank must issue the same Scans in the same order, which is why
  /// distributed fits run the tree loop single-threaded.
  void Scan(size_t begin, size_t end, size_t buf) {
    obs::Count(obs::PipelineMetrics::Get().train_hist_node_builds);
    int64_t* h = hpool.hist(buf);
    uint16_t* plo = hpool.lo(buf);
    uint16_t* phi = hpool.hi(buf);
    stage.StageRows(rows, begin, end, own_begin, own_end);
    for (size_t j = 0; j < cols.size(); ++j) {
      PairScan(ft.column(cols[j]), stage, gh.data(),
               h + hpool.slot_offset(j), plo + j, phi + j);
    }
    if (red == nullptr) return;
    red->AllreduceSum(h, hpool.hist_size());
    for (size_t j = 0; j < cols.size(); ++j) {
      plo[j] = 0;
      phi[j] = static_cast<uint16_t>(ft.num_bins(cols[j]) - 1);
    }
  }

  /// Sentinel for "no histogram yet": Build computes one lazily, and only
  /// after the cheap leaf checks — children that terminate never pay for a
  /// histogram at all.
  static constexpr size_t kNoBuf = NodeHistogramPool::kNone;

  void Run(const std::vector<size_t>& node_rows) {
    rows = node_rows;
    scratch.resize(rows.size());
    Build(0, rows.size(), 0, kNoBuf);
  }

  int32_t Build(size_t begin, size_t end, size_t depth, size_t buf) {
    const size_t n = end - begin;

    // Node totals are a (small) collective too, so leaf weights and
    // stopping decisions are global and identical on every rank.
    int64_t acc[2] = {0, 0};
    for (size_t i = begin; i < end; ++i) {
      const size_t r = rows[i];
      if (r < own_begin || r >= own_end) continue;
      acc[0] += gh[2 * r];
      acc[1] += gh[2 * r + 1];
    }
    if (red != nullptr) red->AllreduceSum(acc, 2);
    const double g_sum = DequantizeGradHess(acc[0]);
    const double h_sum = DequantizeGradHess(acc[1]);

    auto make_leaf = [&]() {
      TreeNode leaf;
      leaf.weight = -g_sum / (h_sum + kLambda);
      if (buf != kNoBuf) hpool.Release(buf);
      tree->push_back(leaf);
      node_bins->push_back(0);
      return static_cast<int32_t>(tree->size() - 1);
    };

    if (depth >= params.max_depth || n < 2) return make_leaf();

    if (buf == kNoBuf) {
      buf = hpool.Acquire();
      Scan(begin, end, buf);
    }
    const int64_t* hist = hpool.hist(buf);

    const GainNode node{g_sum, h_sum, kLambda, params.min_child_weight,
                        g_sum * g_sum / (h_sum + kLambda)};
    double best_gain = 1e-12;
    size_t best_bin = 0;
    obs::Count(obs::PipelineMetrics::Get().train_split_searches);

    // Bins below lo are empty for this node (cumulative sums start at
    // zero there) and boundaries at/after hi leave nothing on the right;
    // a constant column (one bin) offers no boundary.
    for (size_t j = 0; j < cols.size(); ++j) {
      const size_t nb = ft.num_bins(cols[j]);
      slots[j].fh = hist + hpool.slot_offset(j);
      slots[j].lo = hpool.lo(buf)[j];
      slots[j].end = std::min<size_t>(nb - 1, hpool.hi(buf)[j]);
    }
    const size_t slot = NodeSplitSearch(slots.data(), slots.size(), node,
                                        &split, &best_gain, &best_bin);
    if (slot == kNoSplit) return make_leaf();
    const size_t best_feature = cols[slot];

    const size_t mid = StablePartitionRows(
        rows, scratch, begin, end, ft.column(best_feature), best_bin);
    if (mid == begin || mid == end) return make_leaf();

    (*gains)[best_feature] += best_gain;

    TreeNode internal;
    internal.feature = static_cast<int32_t>(best_feature);
    internal.threshold = ft.threshold(best_feature, best_bin);
    tree->push_back(internal);
    node_bins->push_back(static_cast<uint16_t>(best_bin));
    const int32_t id = static_cast<int32_t>(tree->size() - 1);

    // Scan only the smaller child and derive its sibling by subtraction
    // when that beats rescanning; small nodes fall back to lazy per-child
    // scans.
    const auto child = hpool.PlanChildren(
        buf, begin, mid, end, cols.size(),
        [&](size_t b, size_t e, size_t t) { Scan(b, e, t); });
    const int32_t left_id = Build(begin, mid, depth + 1, child.left);
    const int32_t right_id = Build(mid, end, depth + 1, child.right);
    (*tree)[id].left = left_id;
    (*tree)[id].right = right_id;
    return id;
  }
};

// ---------------------------------------------------------------------------
// Fitting.
// ---------------------------------------------------------------------------

void GradientBoostingClassifier::FitBinned(
    const FeatureTable& ft, const std::vector<int>& y,
    const std::vector<size_t>& rows_global) {
  const std::vector<size_t> encoded =
      PrepareFitBinned(ft.num_rows(), y, rows_global);
  const size_t n = rows_global.size();
  const size_t d = ft.num_features();
  const size_t k = encoder_.num_classes();
  num_features_ = d;
  feature_gain_.assign(d, 0.0);
  ResetStorage();

  const bool binary = k == 2;
  const size_t num_outputs = binary ? 1 : k;
  trees_per_round_ = num_outputs;
  // Distributed fits run the per-output tree loop sequentially: every
  // tree issues allreduce rounds, and all ranks must reach them in the
  // same order. The per-sample loss/logit loops stay parallel — they are
  // collective-free.
  const size_t tree_threads =
      params_.reducer != nullptr ? 1 : params_.num_threads;

  // Base score: log-odds (binary) / zero logits (softmax).
  base_score_.assign(num_outputs, 0.0);
  if (binary) {
    double pos = 0.0;
    for (size_t c : encoded) pos += static_cast<double>(c);
    const double p = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
    base_score_[0] = std::log(p / (1.0 - p));
  }

  // Logits/probs are compact (one slot per training row); the fixed-point
  // gradient/hessian buffers are table-indexed — ghs[out][2g] for table
  // row g — because the histogram scans and the distributed row-ownership
  // ranges address rows by table id. Rows outside the subset stay zero
  // and are never scanned.
  const size_t total = ft.num_rows();
  Matrix logits(n, base_score_);
  Matrix probs(n, std::vector<double>(num_outputs));
  std::vector<std::vector<int64_t>> ghs(num_outputs,
                                        std::vector<int64_t>(2 * total, 0));
  std::vector<std::vector<double>> out_gains(num_outputs,
                                             std::vector<double>(d));

  // Per-sample loops are cheap per item; the pool's grain-size path keeps
  // them inline below this many rows and never claims smaller chunks, so
  // dispatch overhead stays amortised. Invariance does not depend on it.
  constexpr size_t kRowGrain = 512;

  Rng rng(params_.seed);
  for (size_t round = 0; round < params_.num_rounds; ++round) {
    obs::ObsSpan round_span(obs::PipelineMetrics::Get().gbt_round_seconds);
    // Row subsample: drawn in compact indexing (so the draw sequence
    // matches any other fit on n rows), then mapped to table ids.
    std::vector<size_t> rows;
    if (params_.subsample < 1.0) {
      const size_t take = std::max<size_t>(
          2, static_cast<size_t>(params_.subsample * static_cast<double>(n)));
      const std::vector<size_t> sel = rng.Sample(n, take);
      rows.resize(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) rows[i] = rows_global[sel[i]];
    } else {
      rows = rows_global;
    }
    // Column subsample per tree — pre-drawn in output order so the
    // parallel tree workers never touch the shared RNG.
    std::vector<std::vector<size_t>> cols(num_outputs);
    for (size_t out = 0; out < num_outputs; ++out) {
      if (params_.colsample < 1.0) {
        const size_t take = std::max<size_t>(
            1,
            static_cast<size_t>(params_.colsample * static_cast<double>(d)));
        cols[out] = rng.Sample(d, take);
      } else {
        cols[out].resize(d);
        std::iota(cols[out].begin(), cols[out].end(), size_t{0});
      }
    }

    // Fused softmax-gradient pass: one row-parallel sweep computes the
    // probabilities AND every output's quantized (grad, hess) pair straight
    // into the table-indexed interleaved buffers. Each (row, output) cell
    // is a pure function of that row's logits, so the thread partitioning
    // is invisible in the results.
    ParallelFor(
        n, params_.num_threads,
        [&](size_t i) {
          const double* lg = logits[i].data();
          double* pr = probs[i].data();
          if (binary) {
            pr[0] = Sigmoid(lg[0]);
          } else {
            SoftmaxInto(lg, num_outputs, pr);
          }
          const size_t g = rows_global[i];
          for (size_t out = 0; out < num_outputs; ++out) {
            const double p = pr[binary ? 0 : out];
            const double target =
                (binary ? encoded[i] == 1 : encoded[i] == out) ? 1.0 : 0.0;
            int64_t* cell = ghs[out].data() + 2 * g;
            cell[0] = QuantizeGradHess(p - target);
            cell[1] = QuantizeGradHess(std::max(1e-12, p * (1.0 - p)));
          }
        },
        kRowGrain);

    std::vector<Tree> round_trees(num_outputs);
    std::vector<std::vector<uint16_t>> round_bins(num_outputs);
    ParallelFor(num_outputs, tree_threads, [&](size_t out) {
      std::fill(out_gains[out].begin(), out_gains[out].end(), 0.0);
      Tree tree;
      HistBuilder builder(ft, ghs[out], params_, cols[out], &tree,
                          &out_gains[out], &round_bins[out]);
      builder.Run(rows);
      round_trees[out] = std::move(tree);
    });
    for (size_t out = 0; out < num_outputs; ++out) {
      for (size_t f = 0; f < d; ++f) feature_gain_[f] += out_gains[out][f];
    }

    UpdateLogitsWithRoundBinned(round_trees, round_bins, ft, rows_global,
                                params_.learning_rate, &logits,
                                params_.num_threads);
    for (const Tree& tree : round_trees) AppendTree(tree);
    ++num_rounds_;
  }
}

void GradientBoostingClassifier::AppendTree(const Tree& tree) {
  nodes_.insert(nodes_.end(), tree.begin(), tree.end());
  tree_offsets_.push_back(nodes_.size());
}

void GradientBoostingClassifier::UpdateLogitsWithRoundBinned(
    const std::vector<std::vector<TreeNode>>& trees,
    const std::vector<std::vector<uint16_t>>& node_bins,
    const FeatureTable& ft, const std::vector<size_t>& rows_global, double lr,
    Matrix* logits, size_t num_threads) {
  // The bin comparison routes every row exactly as the threshold would
  // (bin(f, r) <= b  <=>  value <= threshold(f, b) by the FeatureTable
  // binning contract), so this update agrees bit for bit with a descent
  // over the materialised features.
  ParallelFor(
      rows_global.size(), num_threads,
      [&](size_t i) {
        const size_t r = rows_global[i];
        double* lg = (*logits)[i].data();
        WalkTrees(
            trees.size(), [&](size_t out) { return trees[out].data(); },
            [&](size_t out, size_t f, const TreeNode&, int32_t node) {
              return !(ft.bin(f, r) <=
                       static_cast<uint8_t>(node_bins[out][node]));
            },
            [&](size_t out, const TreeNode& leaf) {
              lg[out] += lr * leaf.weight;
            });
      },
      /*grain=*/512);
}

std::vector<double> GradientBoostingClassifier::PredictProba(
    const std::vector<double>& x) const {
  std::vector<double> proba;
  PredictProbaInto(x, &proba);
  return proba;
}

void GradientBoostingClassifier::PredictProbaInto(
    const std::vector<double>& x, std::vector<double>* proba) const {
  const size_t k = encoder_.num_classes();
  const bool binary = k == 2;
  // The logits (one per output, so one when binary) accumulate in place
  // in the probability vector and are then transformed in place.
  proba->resize(k);
  double* logits = proba->data();
  std::copy(base_score_.begin(), base_score_.end(), logits);
  // Trees in flat round-major order; tree t feeds output t % trees/round,
  // and the walker visits them in that order, so every logit sums its
  // trees exactly as a round-by-round loop does.
  const TreeNode* nodes = node_data();
  size_t out = 0;
  WalkTrees(
      num_rounds_ * trees_per_round_,
      [&](size_t t) { return nodes + tree_offsets_[t]; },
      GoRightOnValue{x.data()},
      [&](size_t, const TreeNode& leaf) {
        logits[out] += params_.learning_rate * leaf.weight;
        if (++out == trees_per_round_) out = 0;
      });
  if (binary) {
    const double p1 = Sigmoid(logits[0]);
    logits[0] = 1.0 - p1;
    logits[1] = p1;
    return;
  }
  SoftmaxInto(logits, k, logits);
}

std::unique_ptr<Classifier> GradientBoostingClassifier::Clone() const {
  return std::make_unique<GradientBoostingClassifier>(params_);
}

std::string GradientBoostingClassifier::Name() const {
  return "XGBoost(eta=" + std::to_string(params_.learning_rate).substr(0, 4) +
         ",rounds=" + std::to_string(params_.num_rounds) +
         ",depth=" + std::to_string(params_.max_depth) + ")";
}

std::vector<size_t> GradientBoostingClassifier::TopFeatures(size_t k) const {
  std::vector<size_t> idx(feature_gain_.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return feature_gain_[a] > feature_gain_[b];
  });
  idx.resize(std::min(k, idx.size()));
  return idx;
}

void GradientBoostingClassifier::SaveBinary(BinaryWriter* w) const {
  // Retired training slots hold the constants the trainer uses: lambda
  // 1.0, gamma 0.0 and max_bins 256.
  w->WriteDouble(params_.learning_rate);
  w->WriteSize(params_.num_rounds);
  w->WriteSize(params_.max_depth);
  w->WriteDouble(kLambda);
  w->WriteDouble(0.0);
  w->WriteDouble(params_.min_child_weight);
  w->WriteDouble(params_.subsample);
  w->WriteDouble(params_.colsample);
  w->WriteU64(params_.seed);
  w->WriteU8(0);  // reserved: the retired split-mode byte.
  w->WriteSize(FeatureTable::kMaxBins);
  SaveEncoder(w);
  w->WriteSize(num_features_);
  w->WriteDoubleVec(base_score_);
  w->WriteDoubleVec(feature_gain_);

  // v3 body: tree index (per-tree node counts) followed by one flat,
  // 8-byte-aligned POD node array in exactly the little-endian layout of
  // the in-memory structs, so a reader on a little-endian host can view
  // the mmap'd bytes in place.
  w->WriteSize(num_rounds_);
  w->WriteSize(trees_per_round_);
  w->WriteSize(node_count());
  for (size_t idx = 0; idx < num_rounds_ * trees_per_round_; ++idx) {
    w->WriteU64(tree_offsets_[idx + 1] - tree_offsets_[idx]);
  }
  w->AlignTo(8);
  if (HostIsLittleEndian()) {
    w->WriteBytes(node_data(), node_count() * sizeof(TreeNode));
  } else {
    const TreeNode* nodes = node_data();
    for (size_t i = 0; i < node_count(); ++i) {
      w->WriteDouble(nodes[i].threshold);
      w->WriteDouble(nodes[i].weight);
      w->WriteI32(nodes[i].feature);
      w->WriteI32(nodes[i].left);
      w->WriteI32(nodes[i].right);
      w->WriteI32(0);  // pad
    }
  }
}

void GradientBoostingClassifier::ValidateTrees(size_t feature_bound) const {
  // WalkTrees' node rules per tree inside the flat storage; a split may
  // name neither a feature past the stored width nor one past the
  // pipeline's.
  const TreeNode* base = node_data();
  const size_t num_trees = num_rounds_ * trees_per_round_;
  const size_t bound = std::min(num_features_, feature_bound);
  for (size_t idx = 0; idx < num_trees; ++idx) {
    const size_t count =
        static_cast<size_t>(tree_offsets_[idx + 1] - tree_offsets_[idx]);
    if (count == 0) {
      throw SerializationError("GradientBoosting: empty tree");
    }
    ValidateTreeNodes(base + tree_offsets_[idx], count, bound,
                      "GradientBoosting", [](const TreeNode&) {});
  }
}

void GradientBoostingClassifier::LoadBinary(BinaryReader* r) {
  // The retired training slots are read past: the stored trees and leaf
  // weights alone decide predictions.
  params_.learning_rate = r->ReadDouble();
  params_.num_rounds = r->ReadSize();
  params_.max_depth = r->ReadSize();
  r->ReadDouble();  // lambda
  r->ReadDouble();  // gamma
  params_.min_child_weight = r->ReadDouble();
  params_.subsample = r->ReadDouble();
  params_.colsample = r->ReadDouble();
  params_.seed = r->ReadU64();
  SkipRetiredFlag(r, "GradientBoosting split mode");
  r->ReadSize();  // max_bins
  LoadEncoder(r);
  num_features_ = r->ReadSize();
  base_score_ = r->ReadDoubleVec();
  feature_gain_ = r->ReadDoubleVec();
  // PredictProba sizes its logits from base_score_ and indexes them with
  // the per-round tree index, so the cross-array invariants must hold
  // before any prediction runs (a crafted file passing the CRC must still
  // fail loudly, per the model_io contract).
  const size_t k = encoder_.num_classes();
  if (k > 0 && base_score_.size() != (k == 2 ? 1 : k)) {
    throw SerializationError(
        "GradientBoosting: base_score size " +
        std::to_string(base_score_.size()) + " inconsistent with " +
        std::to_string(k) + " classes");
  }
  ResetStorage();

  // Tree index + flat aligned node array.
  num_rounds_ = r->ReadSize();
  trees_per_round_ = r->ReadSize();
  const size_t total = r->ReadSize();
  if (trees_per_round_ != base_score_.size()) {
    throw SerializationError(
        "GradientBoosting: round with " + std::to_string(trees_per_round_) +
        " trees, expected " + std::to_string(base_score_.size()));
  }
  // 8 bytes per index entry; divided step by step so no product of
  // file-supplied counts can wrap.
  if (trees_per_round_ > 0 &&
      num_rounds_ > r->remaining() / 8 / trees_per_round_) {
    throw SerializationError("GradientBoosting: tree index exceeds section");
  }
  const size_t num_trees = num_rounds_ * trees_per_round_;
  tree_offsets_.assign(1, 0);
  tree_offsets_.reserve(num_trees + 1);
  for (size_t idx = 0; idx < num_trees; ++idx) {
    // Every tree has a node, and the running sum never passes `total`, so
    // it cannot wrap either.
    const uint64_t count = r->ReadU64();
    if (count == 0 || count > total - tree_offsets_.back()) {
      throw SerializationError(
          "GradientBoosting: tree index inconsistent with node count");
    }
    tree_offsets_.push_back(tree_offsets_.back() + count);
  }
  if (tree_offsets_.back() != total) {
    throw SerializationError(
        "GradientBoosting: tree index inconsistent with node count");
  }
  r->AlignTo(8);
  if (total > r->remaining() / sizeof(TreeNode)) {
    throw SerializationError("GradientBoosting: node array exceeds section");
  }
  const uint8_t* node_bytes = r->ViewBytes(total * sizeof(TreeNode));

  if (r->zero_copy() && HostIsLittleEndian() &&
      reinterpret_cast<uintptr_t>(node_bytes) % alignof(TreeNode) == 0) {
    nodes_view_ = reinterpret_cast<const TreeNode*>(node_bytes);
    nodes_view_count_ = total;
  } else {
    nodes_.resize(total);
    if (HostIsLittleEndian()) {
      if (total > 0) {  // an empty vector's data() may be null.
        std::memcpy(nodes_.data(), node_bytes, total * sizeof(TreeNode));
      }
    } else {
      BinaryReader nr(node_bytes, total * sizeof(TreeNode));
      for (size_t i = 0; i < total; ++i) {
        nodes_[i].threshold = nr.ReadDouble();
        nodes_[i].weight = nr.ReadDouble();
        nodes_[i].feature = nr.ReadI32();
        nodes_[i].left = nr.ReadI32();
        nodes_[i].right = nr.ReadI32();
        nodes_[i].pad = nr.ReadI32();
      }
    }
  }
  ValidateTrees(r->feature_bound());
}

}  // namespace mvg
