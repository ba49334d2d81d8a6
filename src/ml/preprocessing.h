#ifndef MVG_ML_PREPROCESSING_H_
#define MVG_ML_PREPROCESSING_H_

#include <cstdint>
#include <vector>

#include "ml/classifier.h"

namespace mvg {

/// Min-max scaling into [0, 1], as the paper applies before SVM training
/// (§4.3). Constant features map to 0. Transform clamps to [0, 1] so test
/// data outside the training range cannot explode kernel distances.
class MinMaxScaler {
 public:
  void Fit(const Matrix& x);
  /// Fit from precomputed per-feature bounds (the streaming path: exact
  /// mins/maxs tracked by the quantile sketches) — identical state to
  /// Fit() on the materialised matrix.
  void FitFromBounds(const std::vector<double>& mins,
                     const std::vector<double>& maxs);
  std::vector<double> Transform(const std::vector<double>& x) const;
  Matrix TransformAll(const Matrix& x) const;

  void SaveBinary(BinaryWriter* w) const;
  void LoadBinary(BinaryReader* r);

  bool fitted() const { return !mins_.empty(); }

 private:
  std::vector<double> mins_;
  std::vector<double> ranges_;
};

/// Random oversampling of minority classes up to the majority class size
/// (paper §3.2: "apply random oversampling techniques over the minority
/// class"). Returns resampled (X, y) with deterministic sampling.
void RandomOversample(const Matrix& x, const std::vector<int>& y,
                      uint64_t seed, Matrix* x_out, std::vector<int>* y_out);

/// Index form of RandomOversample: the resampled set is row i = out[i] of
/// the original, with out = [0, n) followed by the duplicated minority
/// picks in the same deterministic draw order. RandomOversample is this
/// plus a gather, so the streaming path (which duplicates binned rows
/// in place instead of feature vectors) resamples identically.
std::vector<size_t> OversampleIndices(const std::vector<int>& y,
                                      uint64_t seed);

}  // namespace mvg

#endif  // MVG_ML_PREPROCESSING_H_
