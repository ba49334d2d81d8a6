#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "ml/svm.h"
#include "util/random.h"

namespace mvg {
namespace {

void MakeBlobs(size_t per_class, size_t num_classes, double gap, uint64_t seed,
               Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->clear();
  y->clear();
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      x->push_back({gap * static_cast<double>(c) + rng.Gaussian(0, 0.5),
                    rng.Gaussian(0, 0.5)});
      y->push_back(static_cast<int>(c));
    }
  }
}

/// Softmax regression by full-batch gradient descent with an L2 penalty:
/// the third candidate family of the recorded stacking fixture below. It
/// was a library classifier when the fixture was written; the library no
/// longer ships it, so it lives here, unchanged, to keep the recorded
/// values reachable.
class SoftmaxRegression : public Classifier {
 public:
  void Fit(const Matrix& x, const std::vector<int>& y) override {
    constexpr double kL2 = 1e-3;
    constexpr double kTolerance = 1e-7;
    const std::vector<size_t> encoded = PrepareFit(x, y);
    const size_t n = x.size();
    const size_t d = x[0].size();
    const size_t k = encoder_.num_classes();
    weights_.assign(k, std::vector<double>(d + 1, 0.0));
    double lr = 0.5;
    double prev_loss = std::numeric_limits<double>::infinity();
    Matrix grad(k, std::vector<double>(d + 1, 0.0));
    for (size_t iter = 0; iter < 400; ++iter) {
      for (auto& row : grad) std::fill(row.begin(), row.end(), 0.0);
      double loss = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const std::vector<double> p = PredictProba(x[i]);
        loss -= std::log(std::max(1e-15, p[encoded[i]]));
        for (size_t c = 0; c < k; ++c) {
          const double err = p[c] - (encoded[i] == c ? 1.0 : 0.0);
          for (size_t f = 0; f < d; ++f) grad[c][f] += err * x[i][f];
          grad[c][d] += err;
        }
      }
      loss /= static_cast<double>(n);
      for (size_t c = 0; c < k; ++c) {
        for (size_t f = 0; f < d; ++f) {
          loss += 0.5 * kL2 * weights_[c][f] * weights_[c][f];
          grad[c][f] =
              grad[c][f] / static_cast<double>(n) + kL2 * weights_[c][f];
        }
        grad[c][d] /= static_cast<double>(n);
      }
      if (loss > prev_loss) {
        lr *= 0.5;
      } else if (prev_loss - loss < kTolerance) {
        break;
      }
      prev_loss = std::min(prev_loss, loss);
      for (size_t c = 0; c < k; ++c) {
        for (size_t f = 0; f <= d; ++f) weights_[c][f] -= lr * grad[c][f];
      }
    }
  }

  std::vector<double> PredictProba(
      const std::vector<double>& x) const override {
    std::vector<double> z(weights_.size());
    for (size_t c = 0; c < z.size(); ++c) {
      const auto& wc = weights_[c];
      double acc = wc.back();  // bias
      for (size_t f = 0; f + 1 < wc.size() && f < x.size(); ++f) {
        acc += wc[f] * x[f];
      }
      z[c] = acc;
    }
    const double mx = *std::max_element(z.begin(), z.end());
    double sum = 0.0;
    for (double& v : z) {
      v = std::exp(v - mx);
      sum += v;
    }
    for (double& v : z) v /= sum;
    return z;
  }

  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<SoftmaxRegression>();
  }
  std::string Name() const override { return "SoftmaxRegression"; }

 private:
  Matrix weights_;  ///< k x (d+1), bias in the last column.
};

TEST(StratifiedKFoldTest, PreservesClassBalance) {
  std::vector<int> y;
  for (int i = 0; i < 30; ++i) y.push_back(0);
  for (int i = 0; i < 15; ++i) y.push_back(1);
  const auto folds = StratifiedKFold(y, 3, 1);
  ASSERT_EQ(folds.size(), 3u);
  for (const auto& fold : folds) {
    size_t c0 = 0, c1 = 0;
    for (size_t i : fold.validation) (y[i] == 0 ? c0 : c1) += 1;
    EXPECT_EQ(c0, 10u);
    EXPECT_EQ(c1, 5u);
    EXPECT_EQ(fold.train.size() + fold.validation.size(), y.size());
  }
}

TEST(StratifiedKFoldTest, ValidationSetsPartitionData) {
  std::vector<int> y = {0, 0, 0, 1, 1, 1, 2, 2, 2, 2};
  const auto folds = StratifiedKFold(y, 3, 2);
  std::vector<size_t> seen(y.size(), 0);
  for (const auto& fold : folds) {
    for (size_t i : fold.validation) ++seen[i];
  }
  for (size_t s : seen) EXPECT_EQ(s, 1u);
}

TEST(StratifiedKFoldTest, ThrowsOnOneFold) {
  EXPECT_THROW(StratifiedKFold({0, 1}, 1, 0), std::invalid_argument);
}

TEST(CrossValidationTest, GoodModelScoresBetterThanBad) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 3.0, 3, &x, &y);
  ClassifierFactory good = []() {
    GradientBoostingClassifier::Params p;
    p.num_rounds = 40;
    return std::make_unique<GradientBoostingClassifier>(p);
  };
  ClassifierFactory bad = []() {
    GradientBoostingClassifier::Params p;
    p.num_rounds = 1;
    p.learning_rate = 0.01;
    return std::make_unique<GradientBoostingClassifier>(p);
  };
  const double loss_good = GridSearch({good}, x, y, 3, 1).best_score;
  const double loss_bad = GridSearch({bad}, x, y, 3, 1).best_score;
  EXPECT_LT(loss_good, loss_bad);
  // Far below ln 2, the loss of a coin flip on two classes.
  EXPECT_LE(loss_good, 0.1);
}

TEST(GridSearchTest, PicksTheBetterCandidate) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 3.0, 4, &x, &y);
  std::vector<ClassifierFactory> candidates;
  candidates.push_back([]() {  // deliberately weak
    GradientBoostingClassifier::Params p;
    p.num_rounds = 1;
    p.learning_rate = 0.01;
    return std::make_unique<GradientBoostingClassifier>(p);
  });
  candidates.push_back([]() {
    GradientBoostingClassifier::Params p;
    p.num_rounds = 40;
    return std::make_unique<GradientBoostingClassifier>(p);
  });
  const GridSearchResult result = GridSearch(candidates, x, y, 3, 1);
  EXPECT_EQ(result.best_index, 1u);
  ASSERT_EQ(result.scores.size(), 2u);
  EXPECT_LT(result.scores[1], result.scores[0]);
}

TEST(StackingTest, BeatsOrMatchesWorstFamilyMember) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 2, 2.0, 5, &x, &y);
  std::vector<std::vector<ClassifierFactory>> families;
  families.push_back({[]() {
                        GradientBoostingClassifier::Params p;
                        p.num_rounds = 30;
                        return std::make_unique<GradientBoostingClassifier>(p);
                      },
                      []() {
                        GradientBoostingClassifier::Params p;
                        p.num_rounds = 60;
                        return std::make_unique<GradientBoostingClassifier>(p);
                      }});
  families.push_back({[]() { return std::make_unique<SvmClassifier>(); }});
  StackingEnsemble::Params sp;
  sp.top_k_per_family = 1;
  StackingEnsemble ensemble(std::move(families), sp);
  ensemble.Fit(x, y);
  EXPECT_LE(ErrorRate(y, ensemble.PredictAll(x)), 0.1);
  EXPECT_EQ(ensemble.EstimatorWeights().size(), 2u);
}

TEST(StackingTest, ProbabilitiesAreDistribution) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 3, 3.0, 6, &x, &y);
  std::vector<std::vector<ClassifierFactory>> families;
  families.push_back({[]() {
    return std::make_unique<GradientBoostingClassifier>();
  }});
  StackingEnsemble ensemble(std::move(families));
  ensemble.Fit(x, y);
  const auto p = ensemble.PredictProba(x[0]);
  ASSERT_EQ(p.size(), 3u);
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

/// The stacking ensemble pinned by tests/fixtures/stacking_ensemble.txt.
/// Three 2-D blob classes of 24 rows plus a one-row class: the fold that
/// validates that row trains without it, so the fit skips that fold.
/// Three boosting, two forest and one softmax-regression candidate, top
/// two per family.
void PinnedStackingData(Matrix* x, std::vector<int>* y, Matrix* probes) {
  MakeBlobs(24, 3, 2.0, 61, x, y);
  x->push_back({1.0, 3.0});
  y->push_back(3);
  std::vector<int> unused;
  MakeBlobs(2, 3, 2.0, 62, probes, &unused);
  probes->push_back({1.0, 3.0});
}

std::vector<std::vector<ClassifierFactory>> PinnedStackingFamilies() {
  std::vector<std::vector<ClassifierFactory>> families(3);
  for (size_t rounds : {size_t{8}, size_t{20}, size_t{40}}) {
    families[0].push_back([rounds]() {
      GradientBoostingClassifier::Params p;
      p.num_rounds = rounds;
      p.max_depth = 3;
      return std::make_unique<GradientBoostingClassifier>(p);
    });
  }
  for (size_t trees : {size_t{10}, size_t{25}}) {
    families[1].push_back([trees]() {
      RandomForestClassifier::Params p;
      p.num_trees = trees;
      return std::make_unique<RandomForestClassifier>(p);
    });
  }
  families[2].push_back([]() { return std::make_unique<SoftmaxRegression>(); });
  return families;
}

TEST(StackingTest, MatchesRecordedFixture) {
  // tests/fixtures/stacking_ensemble.txt: EstimatorWeights() and probe
  // probabilities recorded while the out-of-fold predictions still came
  // from per-fold refits (see tests/fixtures/README.md). Every value must
  // match bit for bit, for any thread count.
  Matrix x, probes;
  std::vector<int> y;
  PinnedStackingData(&x, &y, &probes);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    StackingEnsemble::Params params;
    params.top_k_per_family = 2;
    params.num_threads = threads;
    StackingEnsemble ensemble(PinnedStackingFamilies(), params);
    ensemble.Fit(x, y);
    std::ifstream in(std::string(MVG_TEST_FIXTURE_DIR) +
                     "/stacking_ensemble.txt");
    ASSERT_TRUE(in.good());
    std::string line;
    size_t probes_seen = 0;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string kind;
      size_t count = 0;
      fields >> kind;
      std::vector<double> got;
      if (kind == "weights") {
        got = ensemble.EstimatorWeights();
      } else {
        ASSERT_EQ(kind, "proba");
        size_t probe = 0;
        fields >> probe;
        ASSERT_LT(probe, probes.size());
        got = ensemble.PredictProba(probes[probe]);
        ++probes_seen;
      }
      fields >> count;
      ASSERT_FALSE(fields.fail()) << line.substr(0, 40);
      ASSERT_EQ(got.size(), count) << kind;
      for (size_t i = 0; i < count; ++i) {
        std::string token;
        fields >> token;
        ASSERT_FALSE(fields.fail()) << kind << " value " << i;
        const double want = std::strtod(token.c_str(), nullptr);
        ASSERT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
            << line.substr(0, 12) << " value " << i << " (threads "
            << threads << "): got " << got[i] << ", want " << want;
      }
    }
    EXPECT_EQ(probes_seen, probes.size());
  }
}

TEST(StackingTest, FitsEachCandidateFoldCellOnce) {
  // A fit trains every candidate once per fold (scoring, whose validation
  // probabilities double as the out-of-fold predictions) and every
  // selected estimator once more on all rows: C*F + S factory calls.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 3, 3.0, 7, &x, &y);
  auto calls = std::make_shared<std::atomic<size_t>>(0);
  const auto counted = [calls](ClassifierFactory factory) {
    return ClassifierFactory([calls, factory]() {
      ++*calls;
      return factory();
    });
  };
  std::vector<std::vector<ClassifierFactory>> families(2);
  for (size_t rounds : {size_t{3}, size_t{6}, size_t{9}}) {
    families[0].push_back(counted([rounds]() {
      GradientBoostingClassifier::Params p;
      p.num_rounds = rounds;
      return std::make_unique<GradientBoostingClassifier>(p);
    }));
  }
  families[1].push_back(
      counted([]() { return std::make_unique<SvmClassifier>(); }));
  StackingEnsemble::Params params;
  params.top_k_per_family = 1;
  params.num_threads = 4;
  StackingEnsemble ensemble(std::move(families), params);
  const size_t candidates = 4, folds = params.num_folds, selected = 2;
  for (size_t fit = 1; fit <= 2; ++fit) {
    ensemble.Fit(x, y);
    ASSERT_EQ(ensemble.EstimatorWeights().size(), selected);
    EXPECT_EQ(calls->load(), fit * (candidates * folds + selected));
  }
}

}  // namespace
}  // namespace mvg
