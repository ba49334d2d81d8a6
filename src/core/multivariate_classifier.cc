#include "core/multivariate_classifier.h"

#include <algorithm>
#include <stdexcept>

#include "ml/gradient_boosting.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace mvg {

MvgMultivariateClassifier::MvgMultivariateClassifier()
    : MvgMultivariateClassifier(Config()) {}

MvgMultivariateClassifier::MvgMultivariateClassifier(Config config)
    : config_(config), extractor_(config.extractor) {}

std::vector<double> MvgMultivariateClassifier::ExtractInstance(
    const MultiSeries& instance, VgWorkspace* ws) const {
  // Channel c's block is zero-padded or truncated to the width of the
  // longest training series of that channel, so every channel starts at
  // the same column in every row, whatever the instance's lengths.
  std::vector<double> features;
  for (size_t c = 0; c < instance.size(); ++c) {
    std::vector<double> f = extractor_.Extract(instance[c], ws);
    f.resize(extractor_.LayoutForLength(channel_lengths_[c]).feature_width,
             0.0);
    features.insert(features.end(), f.begin(), f.end());
  }
  return features;
}

void MvgMultivariateClassifier::Fit(const MultivariateDataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("MvgMultivariateClassifier: empty train");
  }
  num_channels_ = train.num_channels();
  channel_lengths_.assign(num_channels_, 0);
  for (size_t i = 0; i < train.size(); ++i) {
    for (size_t c = 0; c < num_channels_; ++c) {
      channel_lengths_[c] =
          std::max(channel_lengths_[c], train.instance(i)[c].size());
    }
  }

  WallTimer fe_timer;
  Matrix x;
  x.reserve(train.size());
  VgWorkspace ws;  // pooled across every instance and channel
  for (size_t i = 0; i < train.size(); ++i) {
    x.push_back(ExtractInstance(train.instance(i), &ws));
  }
  fe_seconds_ = fe_timer.Seconds();

  WallTimer train_timer;
  Matrix x_os;
  std::vector<int> y;
  RandomOversample(x, train.labels(), config_.seed, &x_os, &y);
  x = std::move(x_os);
  // Delegate model selection to the same grids as the univariate pipeline
  // by borrowing an MvgClassifier's configuration: the simplest faithful
  // choice is a single-family model here (stacking works identically).
  const size_t threads =
      config_.num_threads == 0 ? DefaultThreads() : config_.num_threads;
  GradientBoostingClassifier::Params gp;
  gp.learning_rate = 0.08;
  gp.num_rounds = 120;
  gp.max_depth = 5;
  gp.subsample = 0.5;
  gp.colsample = 0.5;
  gp.min_child_weight = 0.5;
  gp.seed = config_.seed;
  gp.num_threads = threads;
  RandomForestClassifier::Params rp;
  rp.num_trees = 180;
  rp.max_depth = 20;
  rp.seed = config_.seed;
  rp.num_threads = threads;
  const std::vector<ClassifierFactory> candidates = {
      [gp]() { return std::make_unique<GradientBoostingClassifier>(gp); },
      [rp]() { return std::make_unique<RandomForestClassifier>(rp); },
  };
  size_t best = 0;
  if (config_.grid != GridPreset::kNone) {
    // The grid fans candidate x fold cells across the executor pool, and
    // each cell's tree fits submit nested tasks onto the same pool (total
    // concurrency is capped by the pool size, and results are
    // thread-count invariant either way).
    best = GridSearch(candidates, x, y, MvgClassifier::kCvFolds, config_.seed,
                      threads)
               .best_index;
  }
  model_ = candidates[best]();
  model_->Fit(x, y);
  train_seconds_ = train_timer.Seconds();
}

int MvgMultivariateClassifier::Predict(const MultiSeries& instance) const {
  if (!model_) {
    throw std::runtime_error("MvgMultivariateClassifier: not fitted");
  }
  if (instance.size() != num_channels_) {
    throw std::invalid_argument(
        "MvgMultivariateClassifier: channel count mismatch");
  }
  VgWorkspace ws;
  return model_->Predict(ExtractInstance(instance, &ws));
}

std::vector<int> MvgMultivariateClassifier::PredictAll(
    const MultivariateDataset& test) const {
  std::vector<int> out;
  out.reserve(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    out.push_back(Predict(test.instance(i)));
  }
  return out;
}

std::vector<std::string> MvgMultivariateClassifier::FeatureNames() const {
  std::vector<std::string> names;
  for (size_t c = 0; c < num_channels_; ++c) {
    for (const std::string& n : extractor_.FeatureNames(channel_lengths_[c])) {
      names.push_back("ch" + std::to_string(c) + "." + n);
    }
  }
  return names;
}

}  // namespace mvg
