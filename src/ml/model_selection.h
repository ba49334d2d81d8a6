#ifndef MVG_ML_MODEL_SELECTION_H_
#define MVG_ML_MODEL_SELECTION_H_

#include <cstdint>
#include <vector>

#include "ml/classifier.h"

namespace mvg {

class FeatureTable;

/// One train/validation index split.
struct FoldIndices {
  std::vector<size_t> train;
  std::vector<size_t> validation;
};

/// Stratified k-fold: every fold preserves class proportions (paper §3.2
/// uses stratified CV to keep class balance while validating). Classes
/// with fewer members than folds still land in distinct validation folds.
std::vector<FoldIndices> StratifiedKFold(const std::vector<int>& y,
                                         size_t num_folds, uint64_t seed);

/// Result of a grid search: scores per candidate plus the winner.
struct GridSearchResult {
  std::vector<double> scores;  ///< CV log loss per candidate.
  size_t best_index = 0;
  double best_score = 0.0;
};

/// Evaluates every candidate factory by stratified-CV log loss and picks
/// the best (the paper's hyper-parameter tuning protocol, §3.2/§4.2).
///
/// GridSearch and GridSearchBinned share one engine, which fits every
/// candidate x fold cell exactly once. A fold is used when both sides are
/// non-empty and its train part holds every label of its validation part;
/// each score is the mean log loss (paper Eq. 5) over the used folds, and
/// the search throws when no fold is usable. The cells fan out across
/// `num_threads` workers and each score is reduced in fold order on the
/// calling thread, so scores are bit-identical for every thread count.
/// The train rows are row views (Classifier::FitOnRows), so no fold
/// copies the matrix.
///
/// `cell_probas`, when given, receives every cell's validation
/// probabilities: entry c * folds.size() + f holds candidate c's
/// PredictProba rows for folds[f].validation, in that order, and is empty
/// when fold f is unused. StackingEnsemble builds its out-of-fold
/// predictions from them instead of refitting.
GridSearchResult GridSearch(const std::vector<ClassifierFactory>& candidates,
                            const Matrix& x, const std::vector<int>& y,
                            size_t num_folds, uint64_t seed,
                            size_t num_threads = 1);
GridSearchResult GridSearch(const std::vector<ClassifierFactory>& candidates,
                            const Matrix& x, const std::vector<int>& y,
                            const std::vector<FoldIndices>& folds,
                            size_t num_threads = 1,
                            std::vector<Matrix>* cell_probas = nullptr);

/// GridSearch on the streaming path: the same engine, but each cell
/// trains via Classifier::FitBinned on a shared pre-binned FeatureTable
/// (indices in `folds` are table row ids) and validation rows are scored
/// through FeatureTable::RepresentativeRowInto — a per-bin representative
/// value that every histogram-trained tree routes exactly as the original
/// feature vector, so fold scores match a fit on materialised features
/// whenever the cuts do. No double feature matrix is ever built.
GridSearchResult GridSearchBinned(
    const std::vector<ClassifierFactory>& candidates, const FeatureTable& ft,
    const std::vector<int>& y, const std::vector<FoldIndices>& folds,
    size_t num_threads = 1);

}  // namespace mvg

#endif  // MVG_ML_MODEL_SELECTION_H_
