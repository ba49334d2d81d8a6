#ifndef MVG_ML_STACKING_H_
#define MVG_ML_STACKING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace mvg {

/// Stacked generalization (paper Algorithm 2, refs [40],[44]).
///
/// Given one or more classifier *families* (vectors of candidate factories,
/// e.g. an XGBoost grid, an RF grid, an SVM grid), the ensemble:
///  1. scores every candidate with stratified k-fold cross-validated log
///     loss (Eq. 5) through GridSearch, which fits each candidate x fold
///     cell once,
///  2. keeps the top-k candidates per family,
///  3. takes their out-of-fold probability predictions from those same
///     scoring fits (no estimator is refitted per fold),
///  4. learns one scalar weight per estimator plus a per-class bias by
///     minimising the logistic (softmax) loss on those out-of-fold
///     predictions ("W <- ComputeEstimatorWeights(E) with logistic
///     regression; E = sum_i W_i E_i"),
///  5. refits the selected base estimators on the full training set.
///
/// A fit of C candidates over F folds with S selected estimators trains
/// C*F + S models. The price is memory: until selection the ensemble
/// holds every candidate's validation probabilities, C*n*k doubles for n
/// rows and k classes, where refitting the selected ones per fold held
/// S*n*k.
///
/// Prediction is softmax(sum_e w_e * p_e(c) + b_c): a per-estimator
/// weighted vote, exactly Algorithm 2's final line. Constraining the
/// combiner to scalar weights keeps it robust to the distribution shift
/// between out-of-fold and full-fit probabilities.
class StackingEnsemble : public Classifier {
 public:
  struct Params {
    size_t top_k_per_family = 5;  ///< paper: top five per family.
    size_t num_folds = 3;         ///< paper: 3-fold CV.
    uint64_t seed = 42;
    /// Worker threads for the candidate x fold scoring cells and the
    /// final refits (each trains an independent estimator). Results
    /// are identical for every value. Runtime knob only — not serialized.
    size_t num_threads = 1;
  };

  explicit StackingEnsemble(std::vector<std::vector<ClassifierFactory>> families);
  StackingEnsemble(std::vector<std::vector<ClassifierFactory>> families,
                   Params params);

  /// Empty shell for deserialization (LoadBinary). A default-constructed
  /// (or loaded) ensemble has no candidate families, so it can predict but
  /// Fit()/Clone() throw — loaded models are serve-only artifacts.
  StackingEnsemble() = default;

  void Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const std::vector<double>& x) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  /// Persists params, combiner weights/bias and the refitted base
  /// estimators (via their own type-tagged SaveBinary). The candidate
  /// factories cannot be serialized, so a loaded ensemble is predict-only.
  void SaveBinary(BinaryWriter* w) const override;
  void LoadBinary(BinaryReader* r) override;

  /// The learned W_i of Algorithm 2 (one scalar per selected estimator).
  std::vector<double> EstimatorWeights() const { return weights_; }

 private:
  /// Learns weights_/bias_ by softmax-loss gradient descent on the
  /// out-of-fold probability predictions.
  void FitCombiner(const std::vector<Matrix>& oof_probas,
                   const std::vector<size_t>& encoded,
                   const std::vector<char>& has_oof);

  std::vector<std::vector<ClassifierFactory>> families_;
  Params params_;
  std::vector<std::unique_ptr<Classifier>> base_;
  std::vector<double> weights_;  ///< scalar weight per base estimator.
  std::vector<double> bias_;     ///< per-class bias.
};

}  // namespace mvg

#endif  // MVG_ML_STACKING_H_
