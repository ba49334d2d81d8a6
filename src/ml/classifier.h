#ifndef MVG_ML_CLASSIFIER_H_
#define MVG_ML_CLASSIFIER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mvg {

class BinaryWriter;
class BinaryReader;
class FeatureTable;

/// Dense row-major feature matrix: X[i] is sample i's feature vector.
using Matrix = std::vector<std::vector<double>>;

/// Maps arbitrary integer class labels to dense indices [0, k).
class LabelEncoder {
 public:
  LabelEncoder() = default;

  /// Learns the label set (sorted ascending).
  void Fit(const std::vector<int>& y);

  /// Encoded index of `label`; throws std::invalid_argument if unseen.
  size_t Encode(int label) const;

  /// Original label for an encoded index.
  int Decode(size_t index) const;

  std::vector<size_t> EncodeAll(const std::vector<int>& y) const;

  size_t num_classes() const { return classes_.size(); }
  const std::vector<int>& classes() const { return classes_; }

 private:
  std::vector<int> classes_;
};

/// Common interface for every classifier in the library (paper §3.2: the
/// pipeline deliberately separates feature extraction from generic
/// classification so any of these can be plugged in).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on X (n x d) with integer labels y (n). Throws
  /// std::invalid_argument on shape mismatch or empty input.
  virtual void Fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// Trains on the row subset `rows` of X — semantically identical to
  /// Fit() on the gathered submatrix. The tree families override this to
  /// bin the row view directly, which is what lets cross-validation
  /// (GridSearch, which stacking also scores through) share one feature
  /// matrix across folds without materialising per-fold copies. The
  /// default implementation gathers the rows and delegates to Fit().
  /// `rows` must be non-empty.
  virtual void FitOnRows(const Matrix& x, const std::vector<int>& y,
                         const std::vector<size_t>& rows);

  /// Trains on the row subset `rows` of a pre-binned FeatureTable — the
  /// streaming path's analogue of FitOnRows. The table's bin ids and cut
  /// thresholds are the only feature representation consumed, so callers
  /// can fit without ever materialising the row-major double matrix.
  /// Overridden by the histogram-capable tree families; the default throws
  /// std::runtime_error so families without a binned engine fail loudly.
  /// `rows` must be non-empty.
  virtual void FitBinned(const FeatureTable& ft, const std::vector<int>& y,
                         const std::vector<size_t>& rows);

  /// Class probabilities for one sample, in encoded-class order
  /// (ascending original label). Requires Fit().
  virtual std::vector<double> PredictProba(
      const std::vector<double>& x) const = 0;

  /// Replaces `*proba` with PredictProba(x), reusing its capacity. The
  /// tree families evaluate straight into it (their PredictProba wraps
  /// this), so a call into a vector that has held their probabilities
  /// before allocates nothing. The default copies PredictProba's result.
  virtual void PredictProbaInto(const std::vector<double>& x,
                                std::vector<double>* proba) const;

  /// Most probable original label (the lowest class index on ties).
  int Predict(const std::vector<double>& x) const;
  /// Same label, with the probabilities staged in caller storage.
  int Predict(const std::vector<double>& x, std::vector<double>* proba) const;

  /// Batch helpers.
  std::vector<int> PredictAll(const Matrix& x) const;

  /// Fresh unfitted copy with the same hyper-parameters (for CV/stacking).
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  /// Human-readable name, e.g. "XGBoost(eta=0.1,trees=50)".
  virtual std::string Name() const = 0;

  /// Serializes the fitted model (params + learned state) into `w` in the
  /// endian-stable binary layout of util/binary_io.h, and restores it from
  /// `r`. Overridden by every model family the serving layer can persist
  /// (trees, forests, boosting, SVM, stacking); the default
  /// implementations throw std::runtime_error so families without
  /// persistence support fail loudly instead of writing garbage. Load on a
  /// corrupt buffer throws SerializationError. Framing (magic, version,
  /// checksums, type tags) is the job of serve/model_io.h — these methods
  /// only read/write the body.
  virtual void SaveBinary(BinaryWriter* w) const;
  virtual void LoadBinary(BinaryReader* r);

  /// Original labels in encoded order; requires Fit().
  const std::vector<int>& classes() const { return encoder_.classes(); }
  size_t num_classes() const { return encoder_.num_classes(); }

 protected:
  /// Validates shapes and fits the encoder; returns encoded labels.
  std::vector<size_t> PrepareFit(const Matrix& x, const std::vector<int>& y);

  /// PrepareFit for the binned path: validates `rows` against the
  /// table's row count, fits the encoder on y[rows] and returns the
  /// encoded labels in compact (rows-order) indexing.
  std::vector<size_t> PrepareFitBinned(size_t num_rows,
                                       const std::vector<int>& y,
                                       const std::vector<size_t>& rows);

  /// Shared SaveBinary/LoadBinary fragment for the label encoder (the only
  /// state every family has in common).
  void SaveEncoder(BinaryWriter* w) const;
  void LoadEncoder(BinaryReader* r);

  LabelEncoder encoder_;
};

/// Base of the histogram tree families (decision tree, random forest,
/// boosting), whose one training engine runs on a pre-binned FeatureTable:
/// Fit and FitOnRows validate the rows, bin them into a table and train
/// through the family's FitBinned, so every entry point runs that engine.
class BinnedClassifier : public Classifier {
 public:
  void Fit(const Matrix& x, const std::vector<int>& y) final;
  void FitOnRows(const Matrix& x, const std::vector<int>& y,
                 const std::vector<size_t>& rows) final;
  void FitBinned(const FeatureTable& ft, const std::vector<int>& y,
                 const std::vector<size_t>& rows) override = 0;
};

/// A factory producing unfitted classifiers; the unit of model selection.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

/// Polymorphic classifier IO (ml/classifier_registry.cc): writes a stable
/// type tag followed by the SaveBinary body, so a reader can reconstruct
/// the concrete class without knowing it up front. Covers every family
/// with SaveBinary support; throws std::runtime_error for others.
void SaveClassifierBinary(const Classifier& c, BinaryWriter* w);
/// Inverse of SaveClassifierBinary; throws SerializationError on unknown
/// tags or corrupt bodies.
std::unique_ptr<Classifier> LoadClassifierBinary(BinaryReader* r);

}  // namespace mvg

#endif  // MVG_ML_CLASSIFIER_H_
