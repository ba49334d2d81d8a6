#ifndef MVG_ML_SVM_H_
#define MVG_ML_SVM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace mvg {

/// RBF-kernel support vector machine trained with simplified SMO, extended
/// to multiclass with one-vs-rest (one of the paper's three classifier
/// families). The kernel width is gamma = 1/d for d features. Probabilities
/// come from a softmax over the per-class margin scores, which is what the
/// stacked ensemble consumes.
///
/// The paper min-max scales features before SVM training (§4.3); combine
/// with MinMaxScaler from ml/preprocessing.h.
class SvmClassifier : public Classifier {
 public:
  struct Params {
    double c = 1.0;  ///< Soft-margin penalty.
    uint64_t seed = 42;
  };

  SvmClassifier() = default;
  explicit SvmClassifier(Params params) : params_(params) {}

  void Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const std::vector<double>& x) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  /// Persistence stores only the union of rows referenced as support
  /// vectors (with remapped indices), not the full training matrix, so a
  /// saved SVM is typically much smaller than the fitted one. Decision
  /// values are bit-identical either way.
  void SaveBinary(BinaryWriter* w) const override;
  void LoadBinary(BinaryReader* r) override;

  /// Raw one-vs-rest decision values (margin per class).
  std::vector<double> DecisionFunction(const std::vector<double>& x) const;

  const Params& params() const { return params_; }

 private:
  /// One binary one-vs-rest machine: dual coefficients over support
  /// vectors plus bias.
  struct BinaryMachine {
    std::vector<double> alpha_y;     ///< alpha_i * y_i per support vector.
    std::vector<size_t> sv_indices;  ///< rows of the stored training data.
    double bias = 0.0;
  };

  double KernelEval(const std::vector<double>& a,
                    const std::vector<double>& b) const;

  BinaryMachine TrainBinary(const Matrix& x, const std::vector<double>& y);

  Params params_;
  double gamma_eff_ = 1.0;
  Matrix support_data_;  ///< training rows referenced by machines.
  std::vector<BinaryMachine> machines_;  ///< one per class (OvR).
};

}  // namespace mvg

#endif  // MVG_ML_SVM_H_
