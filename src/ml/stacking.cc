#include "ml/stacking.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "util/binary_io.h"
#include "util/parallel.h"

namespace mvg {

StackingEnsemble::StackingEnsemble(
    std::vector<std::vector<ClassifierFactory>> families)
    : StackingEnsemble(std::move(families), Params()) {}

StackingEnsemble::StackingEnsemble(
    std::vector<std::vector<ClassifierFactory>> families, Params params)
    : families_(std::move(families)), params_(params) {
  if (families_.empty()) {
    throw std::invalid_argument("StackingEnsemble: no families");
  }
}

void StackingEnsemble::Fit(const Matrix& x, const std::vector<int>& y) {
  size_t num_candidates = 0;
  for (const auto& family : families_) num_candidates += family.size();
  if (num_candidates == 0) {
    throw std::runtime_error(
        "StackingEnsemble: no candidate factories (deserialized ensembles "
        "are predict-only)");
  }
  const std::vector<size_t> encoded = PrepareFit(x, y);
  const auto folds = StratifiedKFold(y, params_.num_folds, params_.seed);

  // Step 1: score every candidate by CV log loss. The candidate x fold
  // cells fan out across the pool, and each cell keeps its validation
  // probabilities for step 3.
  std::vector<ClassifierFactory> all_candidates;
  all_candidates.reserve(num_candidates);
  for (const auto& family : families_) {
    all_candidates.insert(all_candidates.end(), family.begin(), family.end());
  }
  std::vector<Matrix> cell_probas;
  const std::vector<double> candidate_scores =
      GridSearch(all_candidates, x, y, folds, params_.num_threads,
                 &cell_probas)
          .scores;

  // Step 2: keep the top-k candidates per family.
  std::vector<size_t> selected;
  size_t cursor = 0;
  for (const auto& family : families_) {
    std::vector<std::pair<double, size_t>> scored;
    for (size_t c = 0; c < family.size(); ++c) {
      scored.emplace_back(candidate_scores[cursor + c], cursor + c);
    }
    cursor += family.size();
    std::sort(scored.begin(), scored.end());
    const size_t take = std::min(params_.top_k_per_family, scored.size());
    for (size_t i = 0; i < take; ++i) selected.push_back(scored[i].second);
  }

  // Step 3: the selected estimators' out-of-fold probabilities are their
  // scoring cells' validation probabilities. A fold the engine skipped
  // (its train part misses a class) left its cells empty, so its rows get
  // no out-of-fold prediction.
  std::vector<Matrix> oof(selected.size(), Matrix(x.size()));
  std::vector<char> has_oof(x.size(), 0);
  for (size_t e = 0; e < selected.size(); ++e) {
    for (size_t f = 0; f < folds.size(); ++f) {
      Matrix& proba = cell_probas[selected[e] * folds.size() + f];
      for (size_t j = 0; j < proba.size(); ++j) {
        oof[e][folds[f].validation[j]] = std::move(proba[j]);
        has_oof[folds[f].validation[j]] = 1;
      }
    }
  }
  cell_probas.clear();

  // Step 4: one scalar weight per estimator + per-class bias.
  FitCombiner(oof, encoded, has_oof);

  // Step 5: refit base estimators on the full training data (in parallel —
  // they are independent; slot order keeps the result deterministic).
  base_.clear();
  base_.resize(selected.size());
  ParallelFor(selected.size(), params_.num_threads, [&](size_t e) {
    std::unique_ptr<Classifier> clf = all_candidates[selected[e]]();
    clf->Fit(x, y);
    base_[e] = std::move(clf);
  });
}

void StackingEnsemble::FitCombiner(const std::vector<Matrix>& oof_probas,
                                   const std::vector<size_t>& encoded,
                                   const std::vector<char>& has_oof) {
  const size_t num_estimators = oof_probas.size();
  const size_t k = encoder_.num_classes();
  weights_.assign(num_estimators, 1.0);  // start from an equal-weight vote
  bias_.assign(k, 0.0);

  std::vector<size_t> rows;
  for (size_t i = 0; i < has_oof.size(); ++i) {
    if (has_oof[i]) rows.push_back(i);
  }
  if (rows.empty()) return;

  const double lr = 0.2;
  const double l2 = 1e-3;
  std::vector<double> z(k), p(k);
  std::vector<double> gw(num_estimators);
  std::vector<double> gb(k);
  double prev_loss = std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < 300; ++iter) {
    std::fill(gw.begin(), gw.end(), 0.0);
    std::fill(gb.begin(), gb.end(), 0.0);
    double loss = 0.0;
    for (size_t i : rows) {
      for (size_t c = 0; c < k; ++c) {
        z[c] = bias_[c];
        for (size_t e = 0; e < num_estimators; ++e) {
          z[c] += weights_[e] * oof_probas[e][i][c];
        }
      }
      const double mx = *std::max_element(z.begin(), z.end());
      double sum = 0.0;
      for (size_t c = 0; c < k; ++c) {
        p[c] = std::exp(z[c] - mx);
        sum += p[c];
      }
      for (size_t c = 0; c < k; ++c) p[c] /= sum;
      loss -= std::log(std::max(1e-15, p[encoded[i]]));
      for (size_t c = 0; c < k; ++c) {
        const double err = p[c] - (encoded[i] == c ? 1.0 : 0.0);
        gb[c] += err;
        for (size_t e = 0; e < num_estimators; ++e) {
          gw[e] += err * oof_probas[e][i][c];
        }
      }
    }
    const double n = static_cast<double>(rows.size());
    loss /= n;
    for (size_t e = 0; e < num_estimators; ++e) {
      loss += 0.5 * l2 * weights_[e] * weights_[e];
    }
    if (prev_loss - loss < 1e-8) break;
    prev_loss = loss;
    for (size_t e = 0; e < num_estimators; ++e) {
      weights_[e] -= lr * (gw[e] / n + l2 * weights_[e]);
    }
    for (size_t c = 0; c < k; ++c) bias_[c] -= lr * gb[c] / n;
  }
}

std::vector<double> StackingEnsemble::PredictProba(
    const std::vector<double>& x) const {
  if (base_.empty()) {
    throw std::runtime_error("StackingEnsemble: not fitted");
  }
  const size_t k = encoder_.num_classes();
  std::vector<double> z(k, 0.0);
  for (size_t c = 0; c < k; ++c) z[c] = bias_.empty() ? 0.0 : bias_[c];
  for (size_t e = 0; e < base_.size(); ++e) {
    const std::vector<double> p = base_[e]->PredictProba(x);
    const double w = e < weights_.size() ? weights_[e] : 1.0;
    for (size_t c = 0; c < k; ++c) z[c] += w * p[c];
  }
  const double mx = *std::max_element(z.begin(), z.end());
  double sum = 0.0;
  std::vector<double> out(k);
  for (size_t c = 0; c < k; ++c) {
    out[c] = std::exp(z[c] - mx);
    sum += out[c];
  }
  for (double& v : out) v /= sum;
  return out;
}

std::unique_ptr<Classifier> StackingEnsemble::Clone() const {
  return std::make_unique<StackingEnsemble>(families_, params_);
}

void StackingEnsemble::SaveBinary(BinaryWriter* w) const {
  w->WriteSize(params_.top_k_per_family);
  w->WriteSize(params_.num_folds);
  w->WriteU64(params_.seed);
  w->WriteSize(families_.size());
  SaveEncoder(w);
  w->WriteDoubleVec(weights_);
  w->WriteDoubleVec(bias_);
  w->WriteSize(base_.size());
  for (const auto& clf : base_) SaveClassifierBinary(*clf, w);
}

void StackingEnsemble::LoadBinary(BinaryReader* r) {
  params_.top_k_per_family = r->ReadSize();
  params_.num_folds = r->ReadSize();
  params_.seed = r->ReadU64();
  // The factories themselves cannot be serialized; candidate-less
  // placeholder families keep Name() faithful while Fit() rejects the
  // predict-only shell.
  families_ =
      std::vector<std::vector<ClassifierFactory>>(r->ReadSize());
  LoadEncoder(r);
  weights_ = r->ReadDoubleVec();
  bias_ = r->ReadDoubleVec();
  const size_t count = r->ReadSize();
  base_.clear();
  base_.reserve(count);
  for (size_t e = 0; e < count; ++e) {
    base_.push_back(LoadClassifierBinary(r));
  }
  // PredictProba indexes bias_ by class and consumes k probabilities from
  // every base estimator, so enforce the cross-array invariants here
  // rather than crashing at predict time on a crafted/corrupt section.
  const size_t k = encoder_.num_classes();
  if (weights_.size() != base_.size()) {
    throw SerializationError("Stacking: weight/estimator count mismatch");
  }
  if (!bias_.empty() && bias_.size() != k) {
    throw SerializationError("Stacking: bias size " +
                             std::to_string(bias_.size()) + " != " +
                             std::to_string(k) + " classes");
  }
  for (const auto& clf : base_) {
    if (clf->num_classes() != k) {
      throw SerializationError(
          "Stacking: base estimator class count mismatch");
    }
  }
}

std::string StackingEnsemble::Name() const {
  return "Stacking(families=" + std::to_string(families_.size()) +
         ",top_k=" + std::to_string(params_.top_k_per_family) + ")";
}

}  // namespace mvg
