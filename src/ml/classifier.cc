#include "ml/classifier.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "ml/feature_table.h"
#include "util/binary_io.h"

namespace mvg {

void LabelEncoder::Fit(const std::vector<int>& y) {
  std::set<int> s(y.begin(), y.end());
  classes_.assign(s.begin(), s.end());
}

size_t LabelEncoder::Encode(int label) const {
  const auto it = std::lower_bound(classes_.begin(), classes_.end(), label);
  if (it == classes_.end() || *it != label) {
    throw std::invalid_argument("LabelEncoder: unseen label " +
                                std::to_string(label));
  }
  return static_cast<size_t>(it - classes_.begin());
}

int LabelEncoder::Decode(size_t index) const { return classes_.at(index); }

std::vector<size_t> LabelEncoder::EncodeAll(const std::vector<int>& y) const {
  std::vector<size_t> out(y.size());
  for (size_t i = 0; i < y.size(); ++i) out[i] = Encode(y[i]);
  return out;
}

void Classifier::PredictProbaInto(const std::vector<double>& x,
                                  std::vector<double>* proba) const {
  *proba = PredictProba(x);
}

int Classifier::Predict(const std::vector<double>& x) const {
  std::vector<double> proba;
  return Predict(x, &proba);
}

int Classifier::Predict(const std::vector<double>& x,
                        std::vector<double>* proba) const {
  PredictProbaInto(x, proba);
  const std::vector<double>& p = *proba;
  size_t best = 0;
  for (size_t i = 1; i < p.size(); ++i) {
    if (p[i] > p[best]) best = i;
  }
  return encoder_.Decode(best);
}

std::vector<int> Classifier::PredictAll(const Matrix& x) const {
  std::vector<int> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(Predict(row));
  return out;
}

void Classifier::FitOnRows(const Matrix& x, const std::vector<int>& y,
                           const std::vector<size_t>& rows) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("Fit: X and y size mismatch");
  }
  Matrix xs;
  std::vector<int> ys;
  xs.reserve(rows.size());
  ys.reserve(rows.size());
  for (size_t r : rows) {
    if (r >= x.size()) {
      throw std::invalid_argument("FitOnRows: row index out of range");
    }
    xs.push_back(x[r]);
    ys.push_back(y[r]);
  }
  Fit(xs, ys);
}

void Classifier::FitBinned(const FeatureTable& /*ft*/,
                           const std::vector<int>& /*y*/,
                           const std::vector<size_t>& /*rows*/) {
  throw std::runtime_error(Name() + ": binned training not supported");
}

void Classifier::SaveBinary(BinaryWriter* /*w*/) const {
  throw std::runtime_error(Name() + ": binary serialization not supported");
}

void Classifier::LoadBinary(BinaryReader* /*r*/) {
  throw std::runtime_error(Name() + ": binary serialization not supported");
}

void Classifier::SaveEncoder(BinaryWriter* w) const {
  w->WriteIntVec(encoder_.classes());
}

void Classifier::LoadEncoder(BinaryReader* r) {
  // LabelEncoder::Fit sorts and dedups; the stored classes are already
  // sorted unique, so refitting on them restores the encoder exactly.
  const std::vector<int> classes = r->ReadIntVec();
  encoder_ = LabelEncoder();
  if (!classes.empty()) encoder_.Fit(classes);
}

std::vector<size_t> Classifier::PrepareFit(const Matrix& x,
                                           const std::vector<int>& y) {
  if (x.empty()) throw std::invalid_argument("Fit: empty training set");
  if (x.size() != y.size()) {
    throw std::invalid_argument("Fit: X and y size mismatch");
  }
  const size_t d = x[0].size();
  for (const auto& row : x) {
    if (row.size() != d) {
      throw std::invalid_argument("Fit: ragged feature matrix");
    }
  }
  encoder_.Fit(y);
  return encoder_.EncodeAll(y);
}

void BinnedClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  std::vector<size_t> rows(x.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  FitOnRows(x, y, rows);
}

void BinnedClassifier::FitOnRows(const Matrix& x, const std::vector<int>& y,
                                 const std::vector<size_t>& rows) {
  if (rows.empty()) throw std::invalid_argument("FitOnRows: empty row set");
  if (x.size() != y.size()) {
    throw std::invalid_argument("Fit: X and y size mismatch");
  }
  if (rows[0] >= x.size()) {
    throw std::invalid_argument("FitOnRows: row index out of range");
  }
  const size_t d = x[rows[0]].size();
  std::vector<int> ys;
  ys.reserve(rows.size());
  for (size_t r : rows) {
    if (r >= x.size()) {
      throw std::invalid_argument("FitOnRows: row index out of range");
    }
    if (x[r].size() != d) {
      throw std::invalid_argument("Fit: ragged feature matrix");
    }
    ys.push_back(y[r]);
  }
  // Table row i is rows[i], so the labels and rows are compact.
  FeatureTable ft;
  ft.Build(x, rows);
  std::vector<size_t> compact(rows.size());
  std::iota(compact.begin(), compact.end(), size_t{0});
  FitBinned(ft, ys, compact);
}

std::vector<size_t> Classifier::PrepareFitBinned(
    size_t num_rows, const std::vector<int>& y,
    const std::vector<size_t>& rows) {
  if (rows.empty()) throw std::invalid_argument("FitBinned: empty row set");
  std::vector<int> ys;
  ys.reserve(rows.size());
  for (size_t r : rows) {
    if (r >= num_rows || r >= y.size()) {
      throw std::invalid_argument("FitBinned: row index out of range");
    }
    ys.push_back(y[r]);
  }
  encoder_.Fit(ys);
  return encoder_.EncodeAll(ys);
}

}  // namespace mvg
