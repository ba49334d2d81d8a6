#include "ts/dataset.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace mvg {

void Dataset::Add(Series series, int label) {
  series_.push_back(std::move(series));
  labels_.push_back(label);
}

std::vector<int> Dataset::ClassLabels() const {
  std::set<int> s(labels_.begin(), labels_.end());
  return std::vector<int>(s.begin(), s.end());
}

size_t Dataset::MaxLength() const {
  size_t m = 0;
  for (const auto& s : series_) m = std::max(m, s.size());
  return m;
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(name_);
  for (size_t i : indices) {
    if (i >= series_.size()) {
      throw std::out_of_range("Dataset::Subset: index out of range");
    }
    out.Add(series_[i], labels_[i]);
  }
  return out;
}

}  // namespace mvg
