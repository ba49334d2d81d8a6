#include "ml/model_selection.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "ml/feature_table.h"
#include "ml/metrics.h"
#include "util/parallel.h"
#include "util/random.h"

namespace mvg {

std::vector<FoldIndices> StratifiedKFold(const std::vector<int>& y,
                                         size_t num_folds, uint64_t seed) {
  if (num_folds < 2) {
    throw std::invalid_argument("StratifiedKFold: need >= 2 folds");
  }
  std::map<int, std::vector<size_t>> by_class;
  for (size_t i = 0; i < y.size(); ++i) by_class[y[i]].push_back(i);

  Rng rng(seed);
  std::vector<std::vector<size_t>> fold_members(num_folds);
  for (auto& [label, idx] : by_class) {
    rng.Shuffle(&idx);
    for (size_t i = 0; i < idx.size(); ++i) {
      fold_members[i % num_folds].push_back(idx[i]);
    }
  }
  std::vector<FoldIndices> folds(num_folds);
  for (size_t f = 0; f < num_folds; ++f) {
    folds[f].validation = fold_members[f];
    std::sort(folds[f].validation.begin(), folds[f].validation.end());
    for (size_t o = 0; o < num_folds; ++o) {
      if (o == f) continue;
      folds[f].train.insert(folds[f].train.end(), fold_members[o].begin(),
                            fold_members[o].end());
    }
    std::sort(folds[f].train.begin(), folds[f].train.end());
  }
  return folds;
}

namespace {

/// A fold is usable when both sides are non-empty and its training part
/// covers every label occurring in its validation part (a class with
/// fewer members than folds can leave a gap; such folds cannot score
/// unseen labels and are skipped). For folds that partition the rows, as
/// StratifiedKFold's do, this is exactly "the training part holds every
/// class": a class missing from it lies wholly in the validation part.
std::vector<char> UsableFolds(const std::vector<FoldIndices>& folds,
                              const std::vector<int>& y) {
  std::vector<char> usable(folds.size(), 0);
  for (size_t f = 0; f < folds.size(); ++f) {
    const FoldIndices& fold = folds[f];
    if (fold.train.empty() || fold.validation.empty()) continue;
    std::vector<int> train_classes;
    train_classes.reserve(fold.train.size());
    for (size_t i : fold.train) train_classes.push_back(y[i]);
    std::sort(train_classes.begin(), train_classes.end());
    train_classes.erase(
        std::unique(train_classes.begin(), train_classes.end()),
        train_classes.end());
    bool label_gap = false;
    for (size_t i : fold.validation) {
      if (!std::binary_search(train_classes.begin(), train_classes.end(),
                              y[i])) {
        label_gap = true;
        break;
      }
    }
    usable[f] = label_gap ? 0 : 1;
  }
  return usable;
}

/// The one cross-validation engine. Every candidate x usable fold cell is
/// fitted exactly once: `fit(clf, rows)` trains a fresh candidate on the
/// fold's train rows, and `row(i, &scratch)` yields validation row i's
/// feature vector for PredictProba. The cells are independent, so they
/// all fan out at once onto the executor pool (a cell's own tree-level
/// parallelism submits nested tasks to the same pool rather than
/// spawning); each candidate's score is then reduced in fold order on the
/// calling thread, so scores are bit-identical for every thread count and
/// pool size. `cell_probas`, when given, keeps every cell's validation
/// probabilities (see the header).
template <typename FitFn, typename RowFn>
GridSearchResult CrossValidate(const std::vector<ClassifierFactory>& candidates,
                               const std::vector<int>& y,
                               const std::vector<FoldIndices>& folds,
                               size_t num_threads, FitFn&& fit, RowFn&& row,
                               std::vector<Matrix>* cell_probas) {
  if (candidates.empty()) {
    throw std::invalid_argument("GridSearch: no candidates");
  }
  const std::vector<char> usable = UsableFolds(folds, y);
  const size_t used = static_cast<size_t>(
      std::count(usable.begin(), usable.end(), char{1}));
  if (used == 0) {
    throw std::runtime_error("GridSearch: no usable folds");
  }
  const size_t num_cells = candidates.size() * folds.size();
  if (cell_probas != nullptr) cell_probas->assign(num_cells, Matrix());
  std::vector<double> cell_scores(num_cells, 0.0);
  ParallelFor(num_cells, num_threads, [&](size_t cell) {
    const size_t f = cell % folds.size();
    if (!usable[f]) return;
    const FoldIndices& fold = folds[f];
    std::unique_ptr<Classifier> clf = candidates[cell / folds.size()]();
    fit(clf.get(), fold.train);
    std::vector<int> yval;
    Matrix proba;
    std::vector<double> scratch;
    yval.reserve(fold.validation.size());
    proba.reserve(fold.validation.size());
    for (size_t i : fold.validation) {
      yval.push_back(y[i]);
      proba.push_back(clf->PredictProba(row(i, &scratch)));
    }
    cell_scores[cell] = LogLoss(yval, proba, clf->classes());
    if (cell_probas != nullptr) (*cell_probas)[cell] = std::move(proba);
  });

  GridSearchResult result;
  result.scores.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    double total = 0.0;
    for (size_t f = 0; f < folds.size(); ++f) {
      if (usable[f]) total += cell_scores[c * folds.size() + f];
    }
    result.scores.push_back(total / static_cast<double>(used));
  }
  result.best_index = static_cast<size_t>(
      std::min_element(result.scores.begin(), result.scores.end()) -
      result.scores.begin());
  result.best_score = result.scores[result.best_index];
  return result;
}

}  // namespace

GridSearchResult GridSearch(const std::vector<ClassifierFactory>& candidates,
                            const Matrix& x, const std::vector<int>& y,
                            size_t num_folds, uint64_t seed,
                            size_t num_threads) {
  return GridSearch(candidates, x, y, StratifiedKFold(y, num_folds, seed),
                    num_threads);
}

GridSearchResult GridSearch(const std::vector<ClassifierFactory>& candidates,
                            const Matrix& x, const std::vector<int>& y,
                            const std::vector<FoldIndices>& folds,
                            size_t num_threads,
                            std::vector<Matrix>* cell_probas) {
  // Train on row views (no per-fold matrix copies), score the rows as-is.
  return CrossValidate(
      candidates, y, folds, num_threads,
      [&](Classifier* clf, const std::vector<size_t>& rows) {
        clf->FitOnRows(x, y, rows);
      },
      [&](size_t i, std::vector<double>*) -> const std::vector<double>& {
        return x[i];
      },
      cell_probas);
}

GridSearchResult GridSearchBinned(
    const std::vector<ClassifierFactory>& candidates, const FeatureTable& ft,
    const std::vector<int>& y, const std::vector<FoldIndices>& folds,
    size_t num_threads) {
  // Train straight from the table; score validation rows through their
  // per-bin representative vectors (exact routing for histogram-trained
  // trees).
  return CrossValidate(
      candidates, y, folds, num_threads,
      [&](Classifier* clf, const std::vector<size_t>& rows) {
        clf->FitBinned(ft, y, rows);
      },
      [&](size_t i, std::vector<double>* rep) -> const std::vector<double>& {
        ft.RepresentativeRowInto(i, rep);
        return *rep;
      },
      nullptr);
}

}  // namespace mvg
