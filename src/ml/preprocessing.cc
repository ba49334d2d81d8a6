#include "ml/preprocessing.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "util/binary_io.h"
#include "util/random.h"

namespace mvg {

void MinMaxScaler::Fit(const Matrix& x) {
  if (x.empty()) throw std::invalid_argument("MinMaxScaler: empty matrix");
  const size_t d = x[0].size();
  mins_.assign(d, std::numeric_limits<double>::infinity());
  std::vector<double> maxs(d, -std::numeric_limits<double>::infinity());
  for (const auto& row : x) {
    for (size_t f = 0; f < d; ++f) {
      mins_[f] = std::min(mins_[f], row[f]);
      maxs[f] = std::max(maxs[f], row[f]);
    }
  }
  ranges_.resize(d);
  for (size_t f = 0; f < d; ++f) ranges_[f] = maxs[f] - mins_[f];
}

void MinMaxScaler::FitFromBounds(const std::vector<double>& mins,
                                 const std::vector<double>& maxs) {
  if (mins.empty() || mins.size() != maxs.size()) {
    throw std::invalid_argument("MinMaxScaler: bad bounds");
  }
  mins_ = mins;
  ranges_.resize(mins.size());
  for (size_t f = 0; f < mins.size(); ++f) ranges_[f] = maxs[f] - mins_[f];
}

std::vector<double> MinMaxScaler::Transform(
    const std::vector<double>& x) const {
  std::vector<double> out(x.size(), 0.0);
  for (size_t f = 0; f < x.size() && f < mins_.size(); ++f) {
    if (ranges_[f] > 1e-12) {
      out[f] = std::clamp((x[f] - mins_[f]) / ranges_[f], 0.0, 1.0);
    }
  }
  return out;
}

Matrix MinMaxScaler::TransformAll(const Matrix& x) const {
  Matrix out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(Transform(row));
  return out;
}

void MinMaxScaler::SaveBinary(BinaryWriter* w) const {
  w->WriteDoubleVec(mins_);
  w->WriteDoubleVec(ranges_);
}

void MinMaxScaler::LoadBinary(BinaryReader* r) {
  mins_ = r->ReadDoubleVec();
  ranges_ = r->ReadDoubleVec();
  if (mins_.size() != ranges_.size()) {
    throw SerializationError("MinMaxScaler: mins/ranges size mismatch");
  }
}

std::vector<size_t> OversampleIndices(const std::vector<int>& y,
                                      uint64_t seed) {
  if (y.empty()) {
    throw std::invalid_argument("OversampleIndices: empty labels");
  }
  std::map<int, std::vector<size_t>> by_class;
  for (size_t i = 0; i < y.size(); ++i) by_class[y[i]].push_back(i);
  size_t majority = 0;
  for (const auto& [label, idx] : by_class) {
    majority = std::max(majority, idx.size());
  }
  Rng rng(seed);
  std::vector<size_t> out(y.size());
  std::iota(out.begin(), out.end(), size_t{0});
  for (const auto& [label, idx] : by_class) {
    for (size_t extra = idx.size(); extra < majority; ++extra) {
      out.push_back(idx[rng.Index(idx.size())]);
    }
  }
  return out;
}

void RandomOversample(const Matrix& x, const std::vector<int>& y,
                      uint64_t seed, Matrix* x_out, std::vector<int>* y_out) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("RandomOversample: bad input");
  }
  const std::vector<size_t> idx = OversampleIndices(y, seed);
  x_out->clear();
  y_out->clear();
  x_out->reserve(idx.size());
  y_out->reserve(idx.size());
  for (size_t i : idx) {
    x_out->push_back(x[i]);
    y_out->push_back(y[i]);
  }
}

}  // namespace mvg
