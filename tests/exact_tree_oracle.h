#ifndef MVG_TESTS_EXACT_TREE_ORACLE_H_
#define MVG_TESTS_EXACT_TREE_ORACLE_H_

// Brute-force reference for the histogram CART engine: the exact
// pre-sorted split sweep over raw feature values (sort the node's rows per
// feature, try every boundary between distinct values). Same stopping
// rules, same seeded per-node feature sampling, same Gini arithmetic as
// DecisionTreeClassifier — so whenever the FeatureTable binning is exact
// (<= kMaxBins distinct values per feature) the two must grow the same
// tree, and training-row probabilities must match bit for bit. Thresholds
// differ (node-local midpoints here, table-wide cut midpoints there), so
// held-out rows may route differently.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "util/random.h"

namespace mvg {
namespace testutil {

class ExactTreeOracle {
 public:
  /// Grows the exact tree over x[rows] (duplicates allowed — bootstrap),
  /// labels `y` already encoded to [0, k). Honours max_depth and
  /// max_features (seeded by params.seed).
  ExactTreeOracle(const Matrix& x, const std::vector<size_t>& y, size_t k,
                  const std::vector<size_t>& rows,
                  const DecisionTreeClassifier::Params& params)
      : x_(x), y_(y), k_(k), params_(params), rng_(params.seed) {
    std::vector<size_t> node_rows = rows;
    Build(&node_rows, 0);
  }

  std::vector<double> PredictProba(const std::vector<double>& row) const {
    size_t cur = 0;
    while (nodes_[cur].feature >= 0) {
      const Node& n = nodes_[cur];
      cur = row[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                               : n.right;
    }
    return nodes_[cur].proba;
  }

  size_t NumNodes() const { return nodes_.size(); }

 private:
  struct Node {
    double threshold = 0.0;
    int feature = -1;
    size_t left = 0, right = 0;
    std::vector<double> proba;
  };

  double Impurity(const std::vector<double>& hist, double total) const {
    if (total <= 0.0) return 0.0;
    double imp = 1.0;
    for (double c : hist) {
      const double p = c / total;
      imp -= p * p;
    }
    return imp;
  }

  size_t Build(std::vector<size_t>* rows, size_t depth) {
    const size_t n = rows->size();
    std::vector<double> hist(k_, 0.0);
    for (size_t r : *rows) hist[y_[r]] += 1.0;
    const auto make_leaf = [&]() {
      Node leaf;
      for (double c : hist) leaf.proba.push_back(c / static_cast<double>(n));
      nodes_.push_back(leaf);
      return nodes_.size() - 1;
    };

    const bool pure = std::count_if(hist.begin(), hist.end(),
                                    [](double c) { return c > 0.0; }) <= 1;
    if (depth >= params_.max_depth || pure) {
      return make_leaf();
    }
    const double parent_imp = Impurity(hist, static_cast<double>(n));

    const size_t d = x_[(*rows)[0]].size();
    std::vector<size_t> features(d);
    std::iota(features.begin(), features.end(), size_t{0});
    if (params_.max_features > 0 && params_.max_features < d) {
      features = rng_.Sample(d, params_.max_features);
    }

    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, size_t>> vals(n);  // (value, class)
    std::vector<double> left(k_), right(k_);
    for (size_t f : features) {
      for (size_t i = 0; i < n; ++i) {
        vals[i] = {x_[(*rows)[i]][f], y_[(*rows)[i]]};
      }
      std::sort(vals.begin(), vals.end());
      std::fill(left.begin(), left.end(), 0.0);
      double nl = 0.0;
      for (size_t i = 0; i + 1 < n; ++i) {
        left[vals[i].second] += 1.0;
        nl += 1.0;
        if (vals[i].first == vals[i + 1].first) continue;
        const double nr = static_cast<double>(n) - nl;
        for (size_t c = 0; c < k_; ++c) right[c] = hist[c] - left[c];
        const double gain =
            parent_imp -
            (nl / static_cast<double>(n)) * Impurity(left, nl) -
            (nr / static_cast<double>(n)) * Impurity(right, nr);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return make_leaf();

    std::vector<size_t> left_rows, right_rows;
    for (size_t r : *rows) {
      (x_[r][static_cast<size_t>(best_feature)] <= best_threshold ? left_rows
                                                                  : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return make_leaf();

    Node internal;
    internal.feature = best_feature;
    internal.threshold = best_threshold;
    nodes_.push_back(internal);
    const size_t id = nodes_.size() - 1;
    const size_t l = Build(&left_rows, depth + 1);
    const size_t r = Build(&right_rows, depth + 1);
    nodes_[id].left = l;
    nodes_[id].right = r;
    return id;
  }

  const Matrix& x_;
  const std::vector<size_t>& y_;
  size_t k_;
  DecisionTreeClassifier::Params params_;
  Rng rng_;
  std::vector<Node> nodes_;
};

}  // namespace testutil
}  // namespace mvg

#endif  // MVG_TESTS_EXACT_TREE_ORACLE_H_
