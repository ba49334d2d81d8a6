#ifndef MVG_TS_DATASET_H_
#define MVG_TS_DATASET_H_

#include <string>
#include <vector>

namespace mvg {

/// A univariate time series: an ordered sequence of real values (Def. 2.1).
using Series = std::vector<double>;

/// A labeled collection of time series, mirroring one UCR dataset split.
///
/// Series may have heterogeneous lengths (UCR sets are uniform, but nothing
/// in the MVG pipeline requires it).
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::string name) : name_(std::move(name)) {}

  /// Appends one labeled series.
  void Add(Series series, int label);

  size_t size() const { return series_.size(); }
  bool empty() const { return series_.empty(); }

  const Series& series(size_t i) const { return series_[i]; }
  int label(size_t i) const { return labels_[i]; }

  const std::vector<Series>& all_series() const { return series_; }
  const std::vector<int>& labels() const { return labels_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Distinct labels in ascending order.
  std::vector<int> ClassLabels() const;

  /// Number of distinct classes.
  size_t NumClasses() const { return ClassLabels().size(); }

  /// Length of the longest series (0 when empty).
  size_t MaxLength() const;

  /// Returns the subset selected by `indices` (bounds-checked).
  Dataset Subset(const std::vector<size_t>& indices) const;

 private:
  std::string name_;
  std::vector<Series> series_;
  std::vector<int> labels_;
};

/// Train/test pair as shipped by the UCR archive.
struct DatasetSplit {
  Dataset train;
  Dataset test;
};

}  // namespace mvg

#endif  // MVG_TS_DATASET_H_
