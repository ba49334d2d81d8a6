// Pins the lockstep tree walker (ml/tree_walk.h) against the scalar
// descent it replaced (tests/tree_walk_oracle.h):
//  * GBT, decision-tree and random-forest probabilities match the oracle
//    bit for bit, for owned models and for in-place views, on random trees
//    of depth 0 to 20 (full, random, lopsided, single-leaf), with 1 to
//    kTreeWalkGroup + 1 trees per round, and on feature values equal to
//    and next to the thresholds, NaN, +-inf and -0.0;
//  * GBT's binned training-time logit update matches the scalar bin-id
//    descent bit for bit, for every thread count;
//  * the tree loaders reject the corrupt counts the walker must never see.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/decision_tree.h"
#include "ml/feature_table.h"
#include "ml/gradient_boosting.h"
#include "ml/quantile_sketch.h"
#include "ml/random_forest.h"
#include "ml/tree_walk.h"
#include "tests/tree_walk_oracle.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace mvg {
namespace {

using testutil::AlignedBody;
using testutil::DtNode;
using testutil::DtSpec;
using testutil::GbtNode;
using testutil::GbtSpec;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " class " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Split values every tree draws its thresholds from, so rows can sit on
/// a threshold, one ulp either side of it, or at a signed zero.
const std::vector<double>& Anchors() {
  static const std::vector<double> anchors = {-2.5, -1.0, -0.0, 0.0,
                                              0.125, 1.0, 3.75, 1e300};
  return anchors;
}

enum class Shape { kRandom, kFull, kLeftSpine, kRightSpine, kZigzag };

/// Grows one tree in preorder (children after their parent, as the
/// trainers append them) with `make_split` / `make_leaf` filling records.
class TreeGrower {
 public:
  TreeGrower(Rng* rng, size_t num_features) : rng_(rng), d_(num_features) {}

  template <typename Node, typename MakeLeaf>
  std::vector<Node> Grow(size_t max_depth, Shape shape,
                         const MakeLeaf& make_leaf) {
    std::vector<Node> nodes;
    GrowAt(&nodes, 0, max_depth, shape, false, make_leaf);
    return nodes;
  }

  double Threshold() {
    const double u = rng_->Uniform();
    if (u < 0.02) return kInf;
    if (u < 0.04) return -kInf;
    if (u < 0.05) return kNaN;
    return Anchors()[rng_->Index(Anchors().size())];
  }

 private:
  template <typename Node, typename MakeLeaf>
  int32_t GrowAt(std::vector<Node>* nodes, size_t depth, size_t max_depth,
                 Shape shape, bool force_leaf, const MakeLeaf& make_leaf) {
    const int32_t id = static_cast<int32_t>(nodes->size());
    nodes->emplace_back();
    const bool split =
        !force_leaf && depth < max_depth &&
        (shape != Shape::kRandom || depth == 0 || rng_->Bernoulli(0.6));
    if (!split) {
      make_leaf(&(*nodes)[id]);
      return id;
    }
    (*nodes)[id].feature = static_cast<int32_t>(rng_->Index(d_));
    (*nodes)[id].threshold = Threshold();
    // A spine keeps one side a leaf at every level: the deepest,
    // narrowest trees; a zigzag alternates which side continues.
    const bool left_leaf = shape == Shape::kRightSpine ||
                           (shape == Shape::kZigzag && depth % 2 == 1);
    const bool right_leaf = shape == Shape::kLeftSpine ||
                            (shape == Shape::kZigzag && depth % 2 == 0);
    const int32_t left =
        GrowAt(nodes, depth + 1, max_depth, shape, left_leaf, make_leaf);
    const int32_t right =
        GrowAt(nodes, depth + 1, max_depth, shape, right_leaf, make_leaf);
    (*nodes)[id].left = left;
    (*nodes)[id].right = right;
    return id;
  }

  Rng* rng_;
  size_t d_;
};

/// A random depth in 0..20 and a shape that keeps the tree small enough:
/// full trees stop at depth 7.
void DrawShape(Rng* rng, size_t* depth, Shape* shape) {
  *shape = static_cast<Shape>(rng->Index(5));
  *depth = rng->Index(21);
  if (*shape == Shape::kFull) *depth = std::min<size_t>(*depth, 7);
  if (rng->Bernoulli(0.1)) *depth = 0;  // single-leaf trees
}

/// Rows that probe every threshold: anchors, their neighbours one ulp
/// away, NaN, +-inf, signed zeros and plain random values.
std::vector<std::vector<double>> ProbeRows(Rng* rng, size_t d, size_t n) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(d));
  for (auto& row : rows) {
    for (double& v : row) {
      const double a = Anchors()[rng->Index(Anchors().size())];
      switch (rng->Index(9)) {
        case 0:
        case 1:
          v = a;
          break;
        case 2:
          v = std::nextafter(a, kInf);
          break;
        case 3:
          v = std::nextafter(a, -kInf);
          break;
        case 4:
          v = kNaN;
          break;
        case 5:
          v = rng->Bernoulli(0.5) ? kInf : -kInf;
          break;
        case 6:
          v = rng->Bernoulli(0.5) ? -0.0 : 0.0;
          break;
        default:
          v = rng->Uniform(-4.0, 4.0);
      }
    }
  }
  return rows;
}

GbtSpec RandomGbt(Rng* rng, size_t num_classes, size_t num_rounds, size_t d) {
  GbtSpec m;
  m.num_classes = num_classes;
  m.num_features = d;
  m.learning_rate = rng->Uniform(0.01, 0.7);
  for (size_t c = 0; c < m.trees_per_round(); ++c) {
    m.base_score.push_back(rng->Uniform(-1.0, 1.0));
  }
  TreeGrower grower(rng, d);
  for (size_t t = 0; t < num_rounds * m.trees_per_round(); ++t) {
    size_t depth;
    Shape shape;
    DrawShape(rng, &depth, &shape);
    m.trees.push_back(grower.Grow<GbtNode>(depth, shape, [&](GbtNode* leaf) {
      leaf->weight = rng->Uniform(-2.0, 2.0);
    }));
  }
  return m;
}

DtSpec RandomDt(Rng* rng, size_t num_classes, size_t d) {
  DtSpec t;
  t.num_classes = num_classes;
  TreeGrower grower(rng, d);
  size_t depth;
  Shape shape;
  DrawShape(rng, &depth, &shape);
  t.nodes = grower.Grow<DtNode>(depth, shape, [&](DtNode* leaf) {
    leaf->proba_begin = static_cast<int32_t>(t.proba.size());
    for (size_t c = 0; c < num_classes; ++c) {
      t.proba.push_back(rng->Uniform());
    }
  });
  return t;
}

std::string GbtBytes(const GbtSpec& m) {
  BinaryWriter w;
  testutil::WriteGbtBody(m, &w);
  return w.data();
}

// ---------------------------------------------------------------------------
// Probabilities against the oracle.
// ---------------------------------------------------------------------------

TEST(TreeWalkTest, GbtMatchesScalarDescentOwnedAndView) {
  Rng rng(11);
  for (int model = 0; model < 240; ++model) {
    // Binary (one tree per round) and 3..9 classes, i.e. 1 to
    // kTreeWalkGroup + 1 trees per round; groups straddle rounds.
    const size_t k = model % 4 == 0 ? 2 : 3 + rng.Index(7);
    const size_t rounds = 1 + rng.Index(k == 2 ? 20 : 4);
    const size_t d = 1 + rng.Index(6);
    const GbtSpec m = RandomGbt(&rng, k, rounds, d);
    const std::string bytes = GbtBytes(m);
    GradientBoostingClassifier owned;
    testutil::LoadOwned(bytes, &owned);
    const AlignedBody body(bytes);
    GradientBoostingClassifier view;
    body.LoadView(&view);
    for (const auto& x : ProbeRows(&rng, d, 24)) {
      const std::vector<double> want = testutil::OracleGbtProba(m, x);
      const std::string what = "model " + std::to_string(model);
      ExpectSameBits(owned.PredictProba(x), want, what + " owned");
      ExpectSameBits(view.PredictProba(x), want, what + " view");
    }
  }
}

TEST(TreeWalkTest, DecisionTreeMatchesScalarDescentOwnedAndView) {
  Rng rng(12);
  for (int model = 0; model < 300; ++model) {
    const size_t k = 2 + rng.Index(4);
    const size_t d = 1 + rng.Index(6);
    const DtSpec t = RandomDt(&rng, k, d);
    BinaryWriter w;
    testutil::WriteDtBody(t, true, &w);
    DecisionTreeClassifier owned;
    testutil::LoadOwned(w.data(), &owned);
    const AlignedBody body(w.data());
    DecisionTreeClassifier view;
    body.LoadView(&view);
    const auto* base = static_cast<const uint8_t*>(body.data());
    const auto* nodes = reinterpret_cast<const uint8_t*>(view.node_data());
    ASSERT_TRUE(nodes >= base && nodes < base + body.size())
        << "the view load must keep the nodes in place";
    for (const auto& x : ProbeRows(&rng, d, 24)) {
      const std::vector<double> want = testutil::OracleDtProba(t, x);
      ExpectSameBits(owned.PredictProba(x), want, "owned");
      ExpectSameBits(view.PredictProba(x), want, "view");
    }
  }
}

TEST(TreeWalkTest, RandomForestMatchesScalarDescentOwnedAndView) {
  Rng rng(13);
  for (int model = 0; model < 120; ++model) {
    const size_t k = 2 + rng.Index(4);
    const size_t d = 1 + rng.Index(6);
    // 1 .. 2 * kTreeWalkGroup + 1 trees: a partial first group, whole
    // groups, and a partial last group.
    std::vector<DtSpec> trees(1 + rng.Index(2 * kTreeWalkGroup + 1));
    for (DtSpec& t : trees) t = RandomDt(&rng, k, d);
    BinaryWriter w;
    testutil::WriteRfBody(trees, &w);
    RandomForestClassifier owned;
    testutil::LoadOwned(w.data(), &owned);
    const AlignedBody body(w.data());
    RandomForestClassifier view;
    body.LoadView(&view);
    for (const auto& x : ProbeRows(&rng, d, 24)) {
      const std::vector<double> want = testutil::OracleRfProba(trees, x);
      ExpectSameBits(owned.PredictProba(x), want, "owned");
      ExpectSameBits(view.PredictProba(x), want, "view");
    }
  }
}

// Models whose every tree is a single leaf never read the row, so an
// empty one is fine; a row is only read once some tree splits.
TEST(TreeWalkTest, SingleLeafModelsNeverReadTheRow) {
  Rng rng(14);
  GbtSpec m;
  m.num_classes = 3;
  m.num_features = 4;
  m.base_score = {0.5, -0.25, 0.0};
  for (int t = 0; t < 3 * 5; ++t) {
    GbtNode leaf;
    leaf.weight = rng.Uniform(-1.0, 1.0);
    m.trees.push_back({leaf});
  }
  GradientBoostingClassifier gbt;
  testutil::LoadOwned(GbtBytes(m), &gbt);
  const std::vector<double> empty;
  ExpectSameBits(gbt.PredictProba(empty), testutil::OracleGbtProba(m, empty),
                 "gbt");

  DtSpec t;
  t.num_classes = 2;
  t.nodes.resize(1);
  t.nodes[0].proba_begin = 0;
  t.proba = {0.25, 0.75};
  BinaryWriter w;
  testutil::WriteRfBody({t, t, t}, &w);
  RandomForestClassifier rf;
  testutil::LoadOwned(w.data(), &rf);
  ExpectSameBits(rf.PredictProba(empty), testutil::OracleRfProba({t, t, t},
                                                                 empty),
                 "rf");
}

// The view really reads the caller's buffer: rewriting a leaf weight in
// the bytes after the load moves the view's prediction, not the owned
// model's.
TEST(TreeWalkTest, GbtViewWalksTheBufferInPlace) {
  GbtSpec m;
  m.num_classes = 2;
  m.base_score = {0.0};
  GbtNode leaf;
  leaf.weight = 0.5;
  m.trees.push_back({leaf});
  const std::string bytes = GbtBytes(m);
  AlignedBody body(bytes);
  GradientBoostingClassifier view, owned;
  body.LoadView(&view);
  testutil::LoadOwned(bytes, &owned);
  const std::vector<double> x = {0.0};
  ExpectSameBits(view.PredictProba(x), owned.PredictProba(x), "before");

  const double weight = 4.0;  // the last node's weight: 24 bytes from the end
  std::memcpy(static_cast<uint8_t*>(body.mutable_data()) + body.size() - 24,
              &weight, sizeof(weight));
  m.trees[0][0].weight = weight;
  ExpectSameBits(view.PredictProba(x), testutil::OracleGbtProba(m, x),
                 "after");
  EXPECT_NE(Bits(view.PredictProba(x)[1]), Bits(owned.PredictProba(x)[1]));
}

// ---------------------------------------------------------------------------
// The binned training-time update against the scalar bin-id descent.
// ---------------------------------------------------------------------------

TEST(TreeWalkTest, BinnedRoundUpdateMatchesScalarDescent) {
  Rng rng(15);
  for (int round = 0; round < 60; ++round) {
    const size_t n = 40 + rng.Index(300);
    const size_t d = 1 + rng.Index(5);
    // Few distinct values per column for coarse bins, many for fine ones.
    Matrix x(n, std::vector<double>(d));
    for (size_t f = 0; f < d; ++f) {
      const int levels = rng.Bernoulli(0.5) ? 3 + rng.Int(0, 5) : 1000;
      for (auto& row : x) row[f] = rng.Int(0, levels);
    }
    // Bin at a drawn resolution below kMaxBins as well: n is under one
    // sketch block, so the sketch's cuts are the exact ones at that count.
    CutSketcher sketcher(2 + rng.Index(255));
    sketcher.AddRows(x, 1);
    const CutSketcher::FeatureCuts fc = sketcher.Finish();
    FeatureTable ft;
    ft.InitFromCuts(fc.cuts, fc.cut_offset, n);
    for (size_t i = 0; i < n; ++i) ft.BinRowInto(x[i].data(), d, i);

    const size_t num_trees = 1 + rng.Index(kTreeWalkGroup + 1);
    std::vector<std::vector<GbtNode>> trees(num_trees);
    std::vector<std::vector<uint16_t>> bins(num_trees);
    TreeGrower grower(&rng, d);
    for (size_t t = 0; t < num_trees; ++t) {
      size_t depth;
      Shape shape;
      DrawShape(&rng, &depth, &shape);
      trees[t] = grower.Grow<GbtNode>(depth, shape, [&](GbtNode* leaf) {
        leaf->weight = rng.Uniform(-2.0, 2.0);
      });
      for (const GbtNode& node : trees[t]) {
        // Split bins anywhere in the feature's range, including past its
        // last boundary; leaves carry 0, as the builder records them.
        const size_t nb =
            node.feature >= 0 ? ft.num_bins(static_cast<size_t>(node.feature))
                              : 1;
        bins[t].push_back(node.feature >= 0
                              ? static_cast<uint16_t>(rng.Index(nb + 1))
                              : 0);
      }
    }
    // A subset of the table's rows, in shuffled order.
    std::vector<size_t> rows;
    for (size_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.7)) rows.push_back(r);
    }
    rng.Shuffle(&rows);
    const double lr = rng.Uniform(0.01, 0.5);
    Matrix start(rows.size(), std::vector<double>(num_trees));
    for (auto& row : start) {
      for (double& v : row) v = rng.Uniform(-3.0, 3.0);
    }

    Matrix want = start;
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t t = 0; t < num_trees; ++t) {
        const int32_t leaf = testutil::ScalarLeafBinned(
            trees[t].data(), bins[t].data(), ft, rows[i]);
        want[i][t] += lr * trees[t][leaf].weight;
      }
    }
    for (size_t threads : {size_t{1}, size_t{3}}) {
      Matrix got = start;
      GradientBoostingClassifier::UpdateLogitsWithRoundBinned(
          trees, bins, ft, rows, lr, &got, threads);
      for (size_t i = 0; i < rows.size(); ++i) {
        ExpectSameBits(got[i], want[i],
                       "round " + std::to_string(round) + " threads " +
                           std::to_string(threads));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Loader invariants the walker relies on: corrupt counts end in
// SerializationError, never in a crash, a wrapped sum or a huge reserve.
// ---------------------------------------------------------------------------

GbtSpec OneLeafBinary() {
  GbtSpec m;
  m.num_classes = 2;
  m.base_score = {0.0};
  m.trees.push_back({GbtNode{}});
  return m;
}

template <typename Model>
void ExpectRejected(const std::string& bytes) {
  BinaryReader r(bytes);
  Model model;
  EXPECT_THROW(model.LoadBinary(&r), SerializationError);
}

// num_rounds * 8 wrapped to zero and the old section check divided by it.
TEST(TreeLoaderTest, GbtHugeRoundCountIsRejected) {
  BinaryWriter w;
  testutil::WriteGbtHeader(OneLeafBinary(), &w);
  w.WriteSize(size_t{1} << 61);  // num_rounds
  w.WriteSize(1);                // trees per round
  w.WriteSize(1);                // total nodes
  w.WriteU64(1);
  w.AlignTo(8);
  testutil::WriteGbtNodes({GbtNode{}}, &w);
  ExpectRejected<GradientBoostingClassifier>(w.data());
}

// Per-tree counts {2^64 - 1, 1, 1} summed to total = 1 after wrapping,
// and validation then walked tree 0 far past the node array.
TEST(TreeLoaderTest, GbtWrappingTreeIndexIsRejected) {
  const auto index = [](std::vector<uint64_t> counts) {
    BinaryWriter w;
    testutil::WriteGbtHeader(OneLeafBinary(), &w);
    w.WriteSize(counts.size());  // num_rounds
    w.WriteSize(1);              // trees per round
    w.WriteSize(1);              // total nodes
    for (uint64_t c : counts) w.WriteU64(c);
    w.AlignTo(8);
    testutil::WriteGbtNodes({GbtNode{}}, &w);
    return w.data();
  };
  ExpectRejected<GradientBoostingClassifier>(
      index({~uint64_t{0}, 1, 1}));
  ExpectRejected<GradientBoostingClassifier>(index({0, 1}));  // empty tree
  ExpectRejected<GradientBoostingClassifier>(index({2}));     // past total
  // The well-formed neighbour loads.
  GradientBoostingClassifier ok;
  testutil::LoadOwned(index({1}), &ok);
  EXPECT_EQ(ok.PredictProba({0.0}).size(), 2u);
}

TEST(TreeLoaderTest, RandomForestOversizedTreeCountIsRejected) {
  BinaryWriter w;
  testutil::WriteRfHeader(1, 2, &w);
  w.WriteSize(size_t{1} << 59);
  ExpectRejected<RandomForestClassifier>(w.data());
}

// A forest's trees must be walkable (a node 0) and carry the forest's
// class count at every leaf, or PredictProba would read past them.
TEST(TreeLoaderTest, RandomForestTreeShapeMismatchIsRejected) {
  DtSpec leaf2;
  leaf2.num_classes = 2;
  leaf2.nodes.resize(1);
  leaf2.nodes[0].proba_begin = 0;
  leaf2.proba = {0.5, 0.5};
  const auto forest = [](size_t k, const DtSpec& t) {
    BinaryWriter w;
    testutil::WriteRfHeader(1, k, &w);
    w.WriteSize(1);
    testutil::WriteDtBody(t, false, &w);
    return w.data();
  };
  ExpectRejected<RandomForestClassifier>(forest(3, leaf2));
  DtSpec empty;
  empty.num_classes = 2;
  ExpectRejected<RandomForestClassifier>(forest(2, empty));
  RandomForestClassifier ok;
  testutil::LoadOwned(forest(2, leaf2), &ok);
  EXPECT_EQ(ok.PredictProba({0.0}), (std::vector<double>{0.5, 0.5}));
}

}  // namespace
}  // namespace mvg
