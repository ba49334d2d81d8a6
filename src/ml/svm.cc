#include "ml/svm.h"

#include <algorithm>
#include <cmath>

#include "util/binary_io.h"
#include "util/random.h"

namespace mvg {

namespace {

/// SMO's KKT tolerance, the consecutive no-change sweeps that end training
/// and the hard cap on sweeps.
constexpr double kTolerance = 1e-3;
constexpr size_t kMaxPasses = 5;
constexpr size_t kMaxIters = 200;

}  // namespace

double SvmClassifier::KernelEval(const std::vector<double>& a,
                                 const std::vector<double>& b) const {
  double sq = 0.0;
  const size_t d = std::min(a.size(), b.size());
  for (size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    sq += diff * diff;
  }
  return std::exp(-gamma_eff_ * sq);
}

SvmClassifier::BinaryMachine SvmClassifier::TrainBinary(
    const Matrix& x, const std::vector<double>& y) {
  // Simplified SMO (Platt 1998 as condensed in the common teaching
  // variant): repeatedly pick KKT-violating i, random j != i, and solve the
  // two-variable subproblem analytically.
  const size_t n = x.size();
  std::vector<double> alpha(n, 0.0);
  double b = 0.0;

  // Precompute the kernel matrix; training sets here are small (the MVG
  // pipeline trains on feature vectors, not raw series).
  Matrix k(n, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      k[i][j] = k[j][i] = KernelEval(x[i], x[j]);
    }
  }

  auto decision = [&](size_t i) {
    double acc = b;
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] > 0.0) acc += alpha[t] * y[t] * k[t][i];
    }
    return acc;
  };

  Rng rng(params_.seed);
  size_t passes = 0, iters = 0;
  while (passes < kMaxPasses && iters < kMaxIters) {
    ++iters;
    size_t changed = 0;
    for (size_t i = 0; i < n; ++i) {
      const double ei = decision(i) - y[i];
      const bool violates =
          (y[i] * ei < -kTolerance && alpha[i] < params_.c) ||
          (y[i] * ei > kTolerance && alpha[i] > 0.0);
      if (!violates) continue;
      size_t j = rng.Index(n - 1);
      if (j >= i) ++j;
      const double ej = decision(j) - y[j];
      const double ai_old = alpha[i], aj_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(params_.c, params_.c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - params_.c);
        hi = std::min(params_.c, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      const double eta = 2.0 * k[i][j] - k[i][i] - k[j][j];
      if (eta >= 0.0) continue;
      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-6) continue;
      const double ai = ai_old + y[i] * y[j] * (aj_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;
      const double b1 = b - ei - y[i] * (ai - ai_old) * k[i][i] -
                        y[j] * (aj - aj_old) * k[i][j];
      const double b2 = b - ej - y[i] * (ai - ai_old) * k[i][j] -
                        y[j] * (aj - aj_old) * k[j][j];
      if (ai > 0.0 && ai < params_.c) {
        b = b1;
      } else if (aj > 0.0 && aj < params_.c) {
        b = b2;
      } else {
        b = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  BinaryMachine machine;
  machine.bias = b;
  for (size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) {
      machine.alpha_y.push_back(alpha[i] * y[i]);
      machine.sv_indices.push_back(i);
    }
  }
  return machine;
}

void SvmClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  const std::vector<size_t> encoded = PrepareFit(x, y);
  const size_t k = encoder_.num_classes();
  gamma_eff_ = 1.0 / static_cast<double>(std::max<size_t>(1, x[0].size()));
  support_data_ = x;
  machines_.clear();
  machines_.reserve(k);
  std::vector<double> binary_y(x.size());
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < x.size(); ++i) {
      binary_y[i] = encoded[i] == c ? 1.0 : -1.0;
    }
    machines_.push_back(TrainBinary(x, binary_y));
  }
}

std::vector<double> SvmClassifier::DecisionFunction(
    const std::vector<double>& x) const {
  std::vector<double> scores(machines_.size(), 0.0);
  for (size_t c = 0; c < machines_.size(); ++c) {
    const BinaryMachine& m = machines_[c];
    double acc = m.bias;
    for (size_t t = 0; t < m.sv_indices.size(); ++t) {
      acc += m.alpha_y[t] * KernelEval(support_data_[m.sv_indices[t]], x);
    }
    scores[c] = acc;
  }
  return scores;
}

std::vector<double> SvmClassifier::PredictProba(
    const std::vector<double>& x) const {
  std::vector<double> scores = DecisionFunction(x);
  if (scores.size() == 2) {
    // For the binary case the two OvR machines are mirror images; use the
    // positive-class margin directly.
    const double p1 = 1.0 / (1.0 + std::exp(-scores[1]));
    return {1.0 - p1, p1};
  }
  const double mx = *std::max_element(scores.begin(), scores.end());
  double sum = 0.0;
  for (double& s : scores) {
    s = std::exp(s - mx);
    sum += s;
  }
  for (double& s : scores) s /= sum;
  return scores;
}

std::unique_ptr<Classifier> SvmClassifier::Clone() const {
  return std::make_unique<SvmClassifier>(params_);
}

std::string SvmClassifier::Name() const {
  return "SVM(rbf,C=" + std::to_string(params_.c).substr(0, 5) + ")";
}

void SvmClassifier::SaveBinary(BinaryWriter* w) const {
  // Retired training slots hold the constants the trainer uses: kernel
  // byte 1 (RBF), gamma 0.0 (1/d, stored as gamma_eff below), tolerance
  // 1e-3, max_passes 5 and max_iters 200.
  w->WriteU8(1);
  w->WriteDouble(params_.c);
  w->WriteDouble(0.0);
  w->WriteDouble(kTolerance);
  w->WriteSize(kMaxPasses);
  w->WriteSize(kMaxIters);
  w->WriteU64(params_.seed);
  SaveEncoder(w);
  w->WriteDouble(gamma_eff_);

  // Compact the stored rows to the union of support vectors. Fit keeps the
  // whole (oversampled) training matrix alive because SMO needs it, but
  // prediction only ever touches rows named in some machine's sv_indices.
  std::vector<size_t> remap(support_data_.size(), SIZE_MAX);
  std::vector<size_t> kept;
  for (const BinaryMachine& m : machines_) {
    for (size_t idx : m.sv_indices) {
      if (remap[idx] == SIZE_MAX) {
        remap[idx] = kept.size();
        kept.push_back(idx);
      }
    }
  }
  w->WriteSize(kept.size());
  for (size_t idx : kept) w->WriteDoubleVec(support_data_[idx]);
  w->WriteSize(machines_.size());
  for (const BinaryMachine& m : machines_) {
    w->WriteDoubleVec(m.alpha_y);
    std::vector<size_t> remapped(m.sv_indices.size());
    for (size_t t = 0; t < m.sv_indices.size(); ++t) {
      remapped[t] = remap[m.sv_indices[t]];
    }
    w->WriteSizeVec(remapped);
    w->WriteDouble(m.bias);
  }
}

void SvmClassifier::LoadBinary(BinaryReader* r) {
  // Prediction evaluates the RBF kernel, so a file must say so. The other
  // retired training slots are read past: gamma_eff, the support vectors
  // and the machines alone decide predictions.
  const uint8_t kernel = r->ReadU8();
  if (kernel == 0) {
    throw SerializationError(
        "SVM: kernel byte 0 names the retired linear kernel; this build "
        "predicts with the RBF kernel only");
  }
  if (kernel != 1) {
    throw SerializationError("SVM: out-of-range kernel byte " +
                             std::to_string(kernel));
  }
  params_.c = r->ReadDouble();
  r->ReadDouble();  // gamma
  r->ReadDouble();  // tolerance
  r->ReadSize();    // max_passes
  r->ReadSize();    // max_iters
  params_.seed = r->ReadU64();
  LoadEncoder(r);
  gamma_eff_ = r->ReadDouble();
  const size_t rows = r->ReadSize();
  support_data_.clear();
  support_data_.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    support_data_.push_back(r->ReadDoubleVec());
  }
  const size_t num_machines = r->ReadSize();
  machines_.clear();
  machines_.reserve(num_machines);
  for (size_t c = 0; c < num_machines; ++c) {
    BinaryMachine m;
    m.alpha_y = r->ReadDoubleVec();
    m.sv_indices = r->ReadSizeVec();
    m.bias = r->ReadDouble();
    if (m.sv_indices.size() != m.alpha_y.size()) {
      throw SerializationError("SVM: alpha/sv count mismatch");
    }
    for (size_t idx : m.sv_indices) {
      if (idx >= rows) {
        throw SerializationError("SVM: support-vector index out of range");
      }
    }
    machines_.push_back(std::move(m));
  }
}

}  // namespace mvg
