#include "ml/decision_tree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ml/hist_kernels.h"
#include "ml/histogram_reducer.h"
#include "ml/tree_walk.h"
#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/simd.h"

namespace mvg {

namespace {

/// Gini impurity of `k` int64 class counts with `total` samples.
///
/// Runs 4 classes per iteration: each count converts to double exactly,
/// p*p is per-element IEEE, and the lanes are subtracted from `imp` in
/// class order, so bits match the scalar spelling exactly — an empty class
/// contributes p*p == 0.0 and x - 0.0 == x.
double Impurity(const int64_t* h, size_t k, double total) {
  if (total <= 0.0) return 0.0;
  double imp = 1.0;
  const simd::F64x4 vt = simd::F64x4::Broadcast(total);
  size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const simd::F64x4 p =
        simd::F64x4::Set(
            static_cast<double>(h[c]), static_cast<double>(h[c + 1]),
            static_cast<double>(h[c + 2]), static_cast<double>(h[c + 3])) /
        vt;
    const simd::F64x4 pp = p * p;
    imp -= pp.Lane(0);
    imp -= pp.Lane(1);
    imp -= pp.Lane(2);
    imp -= pp.Lane(3);
  }
  for (; c < k; ++c) {
    const double p = static_cast<double>(h[c]) / total;
    imp -= p * p;
  }
  return imp;
}

/// Candidate features for one node: all of them, or a seeded sample.
std::vector<size_t> SampleFeatures(size_t d, size_t max_features, Rng* rng) {
  if (max_features > 0 && max_features < d) {
    return rng->Sample(d, max_features);
  }
  std::vector<size_t> features(d);
  std::iota(features.begin(), features.end(), size_t{0});
  return features;
}

/// WalkTrees' node rules, with a split-feature bound, plus this model's
/// leaf rule: every leaf carries a full in-bounds distribution.
void ValidateLoadedTree(const DecisionTreeClassifier::Node* nodes,
                        size_t count, size_t proba_total, size_t num_classes,
                        size_t feature_bound) {
  ValidateTreeNodes(
      nodes, count, feature_bound, "DecisionTree",
      [proba_total, num_classes](const DecisionTreeClassifier::Node& leaf) {
        if (leaf.proba_begin < 0 ||
            static_cast<size_t>(leaf.proba_begin) + num_classes >
                proba_total) {
          throw SerializationError(
              "DecisionTree: leaf distribution out of bounds");
        }
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram split engine.
//
// One shared row-index buffer holds every node's rows as a contiguous
// [begin, end) range and is partitioned in place at each split (stably,
// through a scratch buffer, so results are order-deterministic). Each node
// stages its rows once, counts its class totals from them, and scans its
// candidate features (all of them, or the per-node sample when
// max_features < d — the Random Forest setting) into one int64 slab, one
// slot per candidate: sort-free and allocation-free, O(n_node *
// candidates) per node.
// ---------------------------------------------------------------------------

struct DecisionTreeClassifier::HistBuilder {
  const FeatureTable& ft;
  const std::vector<size_t>& y;  ///< class per compact row.
  const size_t k;                ///< number of classes.
  const Params& params;
  std::vector<Node>* nodes;
  std::vector<double>* leaf_proba;  ///< flat leaf-distribution storage.
  Rng* rng;

  size_t d = 0;
  size_t stride = 0;                ///< cells per slab slot (max bins * k).
  std::vector<size_t> rows;         ///< the shared row-index buffer.
  std::vector<size_t> scratch;      ///< stable-partition staging.
  /// One node's histograms, slot j for candidate j; all-zero between
  /// nodes (each sweep re-zeroes its slot's span).
  std::vector<int64_t> hist;
  std::vector<uint16_t> lo, hi;     ///< occupied bin span per slot.
  std::vector<int64_t> totals;      ///< per-node class counts (k).
  std::vector<int64_t> left, right; ///< split-sweep scratch (k each).
  RowStage stage;                   ///< the node's staged (owned) rows.

  /// Distributed mode (red != nullptr): this rank counts only the compact
  /// rows in [own_begin, own_end), and the group sums every histogram and
  /// node total before a decision reads it. Without a reducer the fit is
  /// world 1 and owns every row: counts are exact int64 sums, so both are
  /// the same arithmetic and the tree is bit-identical for any worker
  /// count.
  HistogramReducer* red = nullptr;
  size_t own_begin = 0, own_end = 0;

  HistBuilder(const FeatureTable& ft_in, const std::vector<size_t>& y_in,
              size_t k_in, const Params& params_in, std::vector<Node>* nodes_in,
              std::vector<double>* leaf_proba_in, Rng* rng_in)
      : ft(ft_in), y(y_in), k(k_in), params(params_in), nodes(nodes_in),
        leaf_proba(leaf_proba_in), rng(rng_in), totals(k_in), left(k_in),
        right(k_in), red(params_in.reducer), own_end(ft_in.num_rows()) {
    d = ft.num_features();
    size_t max_bins = 1;
    for (size_t f = 0; f < d; ++f) max_bins = std::max(max_bins, ft.num_bins(f));
    stride = max_bins * k;
    const size_t candidates =
        params.max_features > 0 ? std::min(params.max_features, d) : d;
    hist.resize(candidates * stride);
    lo.resize(candidates);
    hi.resize(candidates);
    if (red != nullptr) {
      own_begin = OwnedRowsBegin(ft.num_rows(), red->rank(), red->world_size());
      own_end = OwnedRowsEnd(ft.num_rows(), red->rank(), red->world_size());
    }
  }

  void Run(const std::vector<size_t>& node_rows) {
    rows = node_rows;
    scratch.resize(rows.size());
    Build(0, rows.size(), 0);
  }

  /// Class totals of the staged rows into `totals`. With a reducer the
  /// totals are a (small) collective too, so stopping rules and leaf
  /// distributions are global decisions.
  void ComputeTotals() {
    std::fill(totals.begin(), totals.end(), int64_t{0});
    const uint32_t* yp = stage.y32.data();
    for (size_t i = 0; i < stage.n; ++i) ++totals[yp[i]];
    if (red != nullptr) red->AllreduceSum(totals.data(), k);
  }

  /// Class histograms of the staged rows over `features` into the slab
  /// (all-zero by invariant), recording each slot's occupied span. With a
  /// reducer the used slab is then summed across ranks (feature sampling
  /// is seeded identically on every rank, so the slots line up), and any
  /// bin may hold another rank's rows, so every span widens to its full
  /// slot. The collective makes Scan order-sensitive: every rank must
  /// issue the same Scans in the same order, which is why distributed
  /// forests fit their trees one at a time.
  void Scan(const std::vector<size_t>& features) {
    obs::Count(obs::PipelineMetrics::Get().train_hist_node_builds);
    for (size_t j = 0; j < features.size(); ++j) {
      if (ft.num_bins(features[j]) < 2) {  // constant: offers no split.
        lo[j] = 1;
        hi[j] = 0;
        continue;
      }
      ClassScan(ft.column(features[j]), stage, k, hist.data() + j * stride,
                &lo[j], &hi[j]);
    }
    if (red == nullptr) return;
    red->AllreduceSum(hist.data(), features.size() * stride);
    for (size_t j = 0; j < features.size(); ++j) {
      lo[j] = 0;
      hi[j] = static_cast<uint16_t>(ft.num_bins(features[j]) - 1);
    }
  }

  /// Sweeps one feature's per-bin class counts `fh` (num_bins(f) bins, k
  /// int64 cells each) over the occupied range [lo, hi] and updates the
  /// best split. Bins below lo must be empty (cumulative sums start at
  /// zero); boundaries at/after hi leave nothing on the right. Counts
  /// convert to double only for the impurity and the side sizes, and each
  /// conversion is exact.
  void SweepFeature(size_t f, const int64_t* fh, size_t n, double parent_imp,
                    size_t lo_bin, size_t hi_bin, double* best_gain,
                    int* best_feature, size_t* best_bin,
                    double* best_threshold) {
    const size_t nb = ft.num_bins(f);
    if (nb < 2) return;  // constant feature in this table.
    std::fill(left.begin(), left.end(), int64_t{0});
    int64_t nl = 0;
    int64_t* lp = left.data();
    int64_t* rp = right.data();
    const int64_t* tp = totals.data();
    const double dn = static_cast<double>(n);
    for (size_t b = lo_bin; b + 1 < nb && b < hi_bin; ++b) {
      // An empty bin moves no row, so it offers no new partition.
      const int64_t* cell = fh + b * k;
      int64_t bin_total = 0;
      for (size_t c = 0; c < k; ++c) bin_total += cell[c];
      if (bin_total == 0) continue;
      nl += bin_total;
      const int64_t nr = static_cast<int64_t>(n) - nl;
      // Once the node's rows are exhausted every later boundary is empty
      // too. A boundary after a non-empty bin leaves at least one row on
      // each side.
      if (nr <= 0) break;
      for (size_t c = 0; c < k; ++c) {
        lp[c] += cell[c];
        rp[c] = tp[c] - lp[c];
      }
      const double dl = static_cast<double>(nl);
      const double dr = static_cast<double>(nr);
      const double gain = parent_imp - (dl / dn) * Impurity(lp, k, dl) -
                          (dr / dn) * Impurity(rp, k, dr);
      if (gain > *best_gain) {
        *best_gain = gain;
        *best_feature = static_cast<int>(f);
        *best_bin = b;
        *best_threshold = ft.threshold(f, b);
      }
    }
  }

  /// Appends a leaf carrying the current `totals` distribution.
  int32_t MakeLeaf(size_t n) {
    Node leaf;
    leaf.proba_begin = static_cast<int32_t>(leaf_proba->size());
    for (size_t c = 0; c < k; ++c) {
      leaf_proba->push_back(static_cast<double>(totals[c]) /
                            static_cast<double>(n));
    }
    nodes->push_back(leaf);
    return static_cast<int32_t>(nodes->size() - 1);
  }

  /// Stopping rule on the current `totals`. A single-row node is pure.
  bool ShouldStop(size_t depth) const {
    const bool pure = std::count_if(totals.begin(), totals.end(),
                                    [](int64_t c) { return c > 0; }) <= 1;
    return depth >= params.max_depth || pure;
  }

  /// Builds the subtree over rows[begin, end): histograms the node's
  /// candidate features directly from its rows and sweeps each one.
  int32_t Build(size_t begin, size_t end, size_t depth) {
    const size_t n = end - begin;
    stage.Stage(rows, y, begin, end, own_begin, own_end);
    ComputeTotals();
    if (ShouldStop(depth)) return MakeLeaf(n);
    const double parent_imp =
        Impurity(totals.data(), k, static_cast<double>(n));

    const std::vector<size_t> features =
        SampleFeatures(d, params.max_features, rng);
    Scan(features);
    obs::Count(obs::PipelineMetrics::Get().train_split_searches);

    double best_gain = 1e-12;
    int best_feature = -1;
    size_t best_bin = 0;
    double best_threshold = 0.0;
    for (size_t j = 0; j < features.size(); ++j) {
      int64_t* fh = hist.data() + j * stride;
      SweepFeature(features[j], fh, n, parent_imp, lo[j], hi[j], &best_gain,
                   &best_feature, &best_bin, &best_threshold);
      if (lo[j] <= hi[j]) {
        std::fill(fh + lo[j] * k, fh + (hi[j] + 1) * k, int64_t{0});
      }
    }

    if (best_feature < 0) return MakeLeaf(n);
    const size_t mid = StablePartitionRows(
        rows, scratch, begin, end,
        ft.column(static_cast<size_t>(best_feature)), best_bin);
    if (mid == begin || mid == end) return MakeLeaf(n);

    Node internal;
    internal.feature = best_feature;
    internal.threshold = best_threshold;
    nodes->push_back(internal);
    const int32_t id = static_cast<int32_t>(nodes->size() - 1);
    const int32_t left_id = Build(begin, mid, depth + 1);
    const int32_t right_id = Build(mid, end, depth + 1);
    (*nodes)[id].left = left_id;
    (*nodes)[id].right = right_id;
    return id;
  }
};

// ---------------------------------------------------------------------------
// Public fitting entry points.
// ---------------------------------------------------------------------------

void DecisionTreeClassifier::FitBinned(const FeatureTable& ft,
                                       const std::vector<int>& y,
                                       const std::vector<size_t>& rows) {
  const std::vector<size_t> encoded = PrepareFitBinned(ft.num_rows(), y, rows);
  // The engine reads labels by table row id.
  std::vector<size_t> y_table(ft.num_rows(), 0);
  for (size_t i = 0; i < rows.size(); ++i) y_table[rows[i]] = encoded[i];
  FitBinned(ft, y_table, encoder_.num_classes(), rows);
}

void DecisionTreeClassifier::FitBinned(const FeatureTable& ft,
                                       const std::vector<size_t>& y_compact,
                                       size_t num_classes,
                                       const std::vector<size_t>& rows) {
  num_classes_internal_ = num_classes;
  ResetStorage();
  Rng rng(params_.seed);
  HistBuilder builder(ft, y_compact, num_classes, params_, &nodes_,
                      &leaf_proba_, &rng);
  builder.Run(rows);
}

std::vector<double> DecisionTreeClassifier::PredictProba(
    const std::vector<double>& x) const {
  std::vector<double> proba;
  PredictProbaInto(x, &proba);
  return proba;
}

void DecisionTreeClassifier::PredictProbaInto(
    const std::vector<double>& x, std::vector<double>* proba) const {
  const Node* nodes = node_data();
  if (node_count() == 0) {
    proba->assign(num_classes_internal_, 0.0);
    return;
  }
  const double* leaf_proba = nullptr;
  WalkTrees(
      1, [nodes](size_t) { return nodes; }, GoRightOnValue{x.data()},
      [&](size_t, const Node& leaf) {
        leaf_proba = proba_data() + leaf.proba_begin;
      });
  proba->assign(leaf_proba, leaf_proba + num_classes_internal_);
}

std::unique_ptr<Classifier> DecisionTreeClassifier::Clone() const {
  return std::make_unique<DecisionTreeClassifier>(params_);
}

std::string DecisionTreeClassifier::Name() const {
  return "DecisionTree(depth=" + std::to_string(params_.max_depth) + ")";
}

size_t DecisionTreeClassifier::Depth() const {
  // Depth is no longer stored per node (the POD on-disk record has no room
  // for a derived field); recompute by traversal — a diagnostics-only path.
  const Node* nodes = node_data();
  if (node_count() == 0) return 0;
  size_t max_depth = 0;
  std::vector<std::pair<int32_t, size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const Node& node = nodes[id];
    if (node.feature >= 0) {
      stack.emplace_back(node.left, depth + 1);
      stack.emplace_back(node.right, depth + 1);
    }
  }
  return max_depth;
}

void DecisionTreeClassifier::SaveBinary(BinaryWriter* w) const {
  // Retired training slots hold the constants the trainer uses:
  // min_samples_leaf 1, min_samples_split 2, use_entropy 0 (Gini) and
  // max_bins 256.
  w->WriteSize(params_.max_depth);
  w->WriteSize(1);
  w->WriteSize(2);
  w->WriteSize(params_.max_features);
  w->WriteBool(false);
  w->WriteU64(params_.seed);
  w->WriteU8(0);  // reserved: the retired split-mode byte.
  w->WriteSize(FeatureTable::kMaxBins);
  SaveEncoder(w);
  w->WriteSize(num_classes_internal_);
  const Node* nodes = node_data();
  const size_t count = node_count();

  // v3 body: two flat, 8-byte-aligned arrays — the 24-byte POD nodes and
  // the concatenated leaf distributions — in exactly the little-endian
  // layout of the in-memory structs, so a reader on a little-endian host
  // can view the mmap'd bytes in place.
  w->WriteSize(count);
  w->WriteSize(proba_count());
  w->AlignTo(8);
  if (HostIsLittleEndian()) {
    w->WriteBytes(nodes, count * sizeof(Node));
    w->WriteBytes(proba_data(), proba_count() * sizeof(double));
  } else {
    for (size_t i = 0; i < count; ++i) {
      w->WriteDouble(nodes[i].threshold);
      w->WriteI32(nodes[i].feature);
      w->WriteI32(nodes[i].left);
      w->WriteI32(nodes[i].right);
      w->WriteI32(nodes[i].proba_begin);
    }
    for (size_t i = 0; i < proba_count(); ++i) w->WriteDouble(proba_data()[i]);
  }
}

void DecisionTreeClassifier::LoadBinary(BinaryReader* r) {
  // The retired training slots are read past: the stored nodes and leaf
  // distributions alone decide predictions.
  params_.max_depth = r->ReadSize();
  r->ReadSize();  // min_samples_leaf
  r->ReadSize();  // min_samples_split
  params_.max_features = r->ReadSize();
  SkipRetiredFlag(r, "DecisionTree use_entropy");
  params_.seed = r->ReadU64();
  SkipRetiredFlag(r, "DecisionTree split mode");
  r->ReadSize();  // max_bins
  LoadEncoder(r);
  num_classes_internal_ = r->ReadSize();
  ResetStorage();

  // Flat aligned node/distribution arrays.
  const size_t count = r->ReadSize();
  const size_t proba_total = r->ReadSize();
  r->AlignTo(8);
  if (count > r->remaining() / sizeof(Node)) {
    throw SerializationError("DecisionTree: node array exceeds section");
  }
  const uint8_t* node_bytes = r->ViewBytes(count * sizeof(Node));
  if (proba_total > r->remaining() / sizeof(double)) {
    throw SerializationError(
        "DecisionTree: leaf distribution array exceeds section");
  }
  const uint8_t* proba_bytes = r->ViewBytes(proba_total * sizeof(double));

  const bool aligned =
      reinterpret_cast<uintptr_t>(node_bytes) % alignof(Node) == 0 &&
      reinterpret_cast<uintptr_t>(proba_bytes) % alignof(double) == 0;
  if (r->zero_copy() && HostIsLittleEndian() && aligned) {
    nodes_view_ = reinterpret_cast<const Node*>(node_bytes);
    nodes_view_count_ = count;
    proba_view_ = reinterpret_cast<const double*>(proba_bytes);
    proba_view_count_ = proba_total;
  } else {
    nodes_.resize(count);
    leaf_proba_.resize(proba_total);
    if (HostIsLittleEndian()) {
      // Empty arrays have no data() to copy into (memcpy needs non-null).
      if (count > 0) {
        std::memcpy(nodes_.data(), node_bytes, count * sizeof(Node));
      }
      if (proba_total > 0) {
        std::memcpy(leaf_proba_.data(), proba_bytes,
                    proba_total * sizeof(double));
      }
    } else {
      BinaryReader nr(node_bytes, count * sizeof(Node));
      for (size_t i = 0; i < count; ++i) {
        nodes_[i].threshold = nr.ReadDouble();
        nodes_[i].feature = nr.ReadI32();
        nodes_[i].left = nr.ReadI32();
        nodes_[i].right = nr.ReadI32();
        nodes_[i].proba_begin = nr.ReadI32();
      }
      BinaryReader pr(proba_bytes, proba_total * sizeof(double));
      for (size_t i = 0; i < proba_total; ++i) leaf_proba_[i] = pr.ReadDouble();
    }
  }
  ValidateLoadedTree(node_data(), node_count(), proba_count(),
                     num_classes_internal_, r->feature_bound());
}

}  // namespace mvg
