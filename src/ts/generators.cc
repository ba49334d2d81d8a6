#include "ts/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/random.h"

namespace mvg {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Gaussian bump centered at `center` (fractional position in [0,1]).
void AddBump(Series* s, double center, double width, double height) {
  const double n = static_cast<double>(s->size());
  const double c = center * n;
  const double w = width * n;
  for (size_t i = 0; i < s->size(); ++i) {
    const double d = (static_cast<double>(i) - c) / w;
    (*s)[i] += height * std::exp(-0.5 * d * d);
  }
}

/// Smooth random monotone time warp: index i is remapped by up to
/// `strength` * n samples using a low-frequency sine perturbation.
Series RandomWarp(const Series& s, Rng* rng, double strength) {
  const size_t n = s.size();
  if (n < 4) return s;
  const double a = rng->Uniform(-strength, strength);
  const double phase = rng->Uniform(0.0, 2.0 * kPi);
  Series out(n);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    double warped = t + a * std::sin(2.0 * kPi * t + phase) / (2.0 * kPi);
    warped = std::min(1.0, std::max(0.0, warped));
    const double pos = warped * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = s[lo] * (1.0 - frac) + s[hi] * frac;
  }
  return out;
}

void AddNoise(Series* s, Rng* rng, double stddev) {
  for (double& v : *s) v += rng->Gaussian(0.0, stddev);
}

/// Random circular shift by up to +-`max_fraction` of the length. Most UCR
/// families the paper evaluates are not perfectly aligned (its §1 argues
/// "well-aligned time series data are difficult or expensive to come by"),
/// so the generators misalign instances to exercise exactly that regime.
void RandomShift(Series* s, Rng* rng, double max_fraction) {
  const size_t n = s->size();
  if (n < 2) return;
  const int max_shift =
      static_cast<int>(max_fraction * static_cast<double>(n));
  if (max_shift == 0) return;
  const int shift = rng->Int(-max_shift, max_shift);
  const size_t k = static_cast<size_t>((shift % static_cast<int>(n) +
                                        static_cast<int>(n)) %
                                       static_cast<int>(n));
  std::rotate(s->begin(), s->begin() + static_cast<long>(k), s->end());
}

/// Adds AR(1)-correlated noise: phi controls the roughness/smoothness of
/// the local texture, which visibility-graph motifs are very sensitive to
/// (the VG literature's core use case). Different signal sources (muscle
/// tremor, sensor electronics, fibrillating tissue) leave different
/// textures even when the macroscopic shape is similar.
void AddArNoise(Series* s, Rng* rng, double phi, double stddev) {
  double prev = 0.0;
  const double innovation = stddev * std::sqrt(1.0 - phi * phi);
  for (double& v : *s) {
    prev = phi * prev + rng->Gaussian(0.0, innovation);
    v += prev;
  }
}

// ---------------------------------------------------------------------------
// Family generators: produce one series of class `cls`.
// ---------------------------------------------------------------------------

/// "shapes": smooth class prototypes built from 2-3 bumps whose geometry
/// depends on the class, randomly warped. Mimics image-outline sets
/// (ArrowHead, BeetleFly, ShapesAll).
Series MakeShapes(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  const double spread = 0.06 + 0.015 * cls;
  AddBump(&s, 0.3, spread, 1.0 + 0.18 * cls);
  AddBump(&s, 0.62, 0.10, 0.8 - 0.12 * cls);
  if (cls % 2 == 1) AddBump(&s, 0.82, 0.04, 0.5);
  s = RandomWarp(s, rng, 0.35);
  RandomShift(&s, rng, 0.2);  // outlines are rotation-invariant, not aligned
  AddNoise(&s, rng, 0.13);
  return s;
}

/// "ecg": beat morphology — P wave, QRS complex, T wave; class changes
/// amplitudes/widths and adds ectopic features. Mimics ECG5000.
Series MakeEcg(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  const double qrs_h = 2.2 - 0.3 * (cls % 3);
  const double t_h = 0.6 + 0.15 * (cls % 2);
  AddBump(&s, 0.18, 0.03, 0.35);                      // P wave
  AddBump(&s, 0.40, 0.012, qrs_h);                    // R spike
  AddBump(&s, 0.44, 0.015, -0.7 - 0.2 * (cls % 2));   // S dip
  AddBump(&s, 0.68, 0.06, t_h);                       // T wave
  if (cls >= 3) AddBump(&s, 0.86, 0.02, 0.9);         // ectopic beat
  if (cls == 4) AddBump(&s, 0.10, 0.05, -0.5);        // depressed baseline
  s = RandomWarp(s, rng, 0.12);
  RandomShift(&s, rng, 0.1);  // beats are segmented, never perfectly
  // Beat classes carry distinct high-frequency textures (e.g. fibrillation
  // vs clean sinus rhythm), not just different bump heights.
  AddArNoise(&s, rng, 0.05 + 0.18 * cls, 0.15);
  return s;
}

/// "devices": duty-cycle step profiles; class controls number of on-phases,
/// duty fraction and level. Mimics ElectricDevices / Computers /
/// Small/LargeKitchenAppliances.
Series MakeDevices(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  const int phases = 1 + cls % 3;
  // Per-instance level jitter: absolute magnitude alone cannot identify
  // the device, the usage *pattern* has to.
  const double level = (1.0 + 0.4 * (cls % 3)) * rng->Uniform(0.85, 1.15);
  const double duty = 0.20 + 0.08 * (cls % 2);
  for (int p = 0; p < phases; ++p) {
    const double start = rng->Uniform(0.0, 1.0 - duty);
    const size_t a = static_cast<size_t>(start * static_cast<double>(n));
    const size_t b = std::min(
        n, a + static_cast<size_t>(duty * static_cast<double>(n)));
    // Appliance motors superimpose a characteristic ripple on the
    // on-phase (compressors hum, heaters don't); its phase is arbitrary.
    const double ripple_period =
        static_cast<double>(n) / (8.0 + 5.0 * (cls % 4));
    const double ripple_phase = rng->Uniform(0.0, 2.0 * kPi);
    for (size_t i = a; i < b; ++i) {
      s[i] += level + 0.2 * std::sin(2.0 * kPi * static_cast<double>(i) /
                                         ripple_period +
                                     ripple_phase);
    }
  }
  AddNoise(&s, rng, 0.1);
  return s;
}

/// "engine": harmonic signature vs detuned signature + noise floor.
/// Mimics FordA/FordB style acoustic diagnosis.
Series MakeEngine(size_t n, int cls, Rng* rng) {
  const double base = 12.0 + rng->Uniform(-0.5, 0.5);
  Series s(n, 0.0);
  const double detune = cls == 0 ? 1.0 : rng->Uniform(1.18, 1.4);
  for (int h = 1; h <= 3; ++h) {
    const double period = base / static_cast<double>(h) * detune;
    const double amp = 1.0 / static_cast<double>(h);
    const double phase = rng->Uniform(0.0, 2.0 * kPi);
    for (size_t i = 0; i < n; ++i) {
      s[i] += amp * std::sin(2.0 * kPi * static_cast<double>(i) / period + phase);
    }
  }
  // Equal noise floors: the only discriminative signal is the harmonic
  // structure itself, exactly the paper's "global feature" case.
  AddNoise(&s, rng, 0.4);
  return s;
}

/// "shapelet": pure noise with one class-specific local pattern planted at
/// a random position (rotation/alignment invariance test). Mimics
/// ShapeletSim / ToeSegmentation.
Series MakeShapelet(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  AddNoise(&s, rng, 1.0);
  const size_t pat_len = n / 6;
  const size_t start = rng->Index(n - pat_len);
  for (size_t i = 0; i < pat_len; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(pat_len);
    // Class 0: smooth bump; class 1: sawtooth burst.
    const double v = cls == 0 ? 3.0 * std::sin(kPi * t)
                              : 3.0 * (2.0 * std::fmod(4.0 * t, 1.0) - 1.0);
    s[start + i] += v;
  }
  return s;
}

/// "lightcurve": flat flux with transit dips of class-specific depth/width.
Series MakeLightCurve(size_t n, int cls, Rng* rng) {
  Series s(n, 1.0);
  const double depth = 0.35 + 0.15 * cls;
  const double width = 0.05 + 0.015 * cls;
  const double center = rng->Uniform(0.15, 0.85);
  AddBump(&s, center, width, -depth);
  AddNoise(&s, rng, 0.2);
  return s;
}

/// "chaos": logistic map regimes vs noise — the classic visibility-graph
/// discrimination target (paper §2.1, [18],[45]).
Series MakeChaos(size_t n, int cls, Rng* rng) {
  if (cls == 2) return GaussianNoise(n, rng->engine()(), 1.0);
  const double r = cls == 0 ? 4.0 : 3.8282;  // fully chaotic vs intermittent
  Series s = LogisticMap(n, r, rng->Uniform(0.05, 0.95));
  if (cls == 1) AddNoise(&s, rng, 0.05);  // noisy chaotic map
  return s;
}

/// "worms": low-frequency locomotion envelopes, class-specific frequency
/// mixture. Mimics Worms / WormsTwoClass.
Series MakeWorms(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  // Nearly identical macroscopic shapes across classes; the discriminative
  // signal lives in the movement *texture* below.
  const double jitter = rng->Uniform(0.9, 1.1);
  const double f1 = (2.0 + 0.15 * cls) * jitter;
  const double f2 = (5.0 + 0.25 * cls) * jitter;
  const double p1 = rng->Uniform(0.0, 2.0 * kPi);
  const double p2 = rng->Uniform(0.0, 2.0 * kPi);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    s[i] = std::sin(2.0 * kPi * f1 * t + p1) +
           0.6 * std::sin(2.0 * kPi * f2 * t + p2);
  }
  // Locomotion classes also differ in movement roughness, a texture cue
  // carried by the motif distribution rather than the curve shape.
  AddArNoise(&s, rng, 0.08 + 0.18 * cls, 0.5);
  return s;
}

/// "wafer": piecewise process trace; the rare anomaly class (1) has an
/// extra excursion. Intentionally imbalanced (9:1) to exercise the random
/// oversampling path.
Series MakeWafer(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  // Plateau edges drift from instance to instance (process variation).
  const size_t step1 = n / 4 + rng->Index(n / 8);
  const size_t step2 = 3 * n / 4 - rng->Index(n / 8);
  for (size_t i = step1; i < step2; ++i) s[i] = 1.5;
  if (cls == 1) {
    AddBump(&s, rng->Uniform(0.3, 0.6), 0.03, rng->Uniform(1.5, 2.5));
  }
  AddNoise(&s, rng, 0.15);
  return s;
}

/// "starshapes": varying number of local bumps on a flat baseline.
Series MakeStarShapes(size_t n, int cls, Rng* rng) {
  Series s(n, 0.0);
  const int bumps = 1 + cls;
  for (int b = 0; b < bumps; ++b) {
    const double c = (static_cast<double>(b) + rng->Uniform(0.3, 0.7)) /
                     static_cast<double>(bumps);
    AddBump(&s, c, 0.03, 1.2);
  }
  AddNoise(&s, rng, 0.15);
  return s;
}

/// "phoneme": AR(2) resonator driven by white noise; class sets the
/// resonant frequency/bandwidth (formant-like). Mimics Phoneme /
/// InsectWingbeatSound.
Series MakePhoneme(size_t n, int cls, Rng* rng) {
  const double freq = 0.08 + 0.05 * cls;           // normalised frequency
  const double radius = 0.92 + 0.01 * (cls % 3);   // pole radius
  const double a1 = 2.0 * radius * std::cos(2.0 * kPi * freq);
  const double a2 = -radius * radius;
  Series s(n, 0.0);
  double y1 = 0.0, y2 = 0.0;
  for (size_t i = 0; i < n + 50; ++i) {
    const double y = a1 * y1 + a2 * y2 + rng->Gaussian();
    y2 = y1;
    y1 = y;
    if (i >= 50) s[i - 50] = y;  // drop transient
  }
  return s;
}

Series MakeFamilySeries(const std::string& family, size_t n, int cls,
                        Rng* rng) {
  if (family == "shapes") return MakeShapes(n, cls, rng);
  if (family == "ecg") return MakeEcg(n, cls, rng);
  if (family == "devices") return MakeDevices(n, cls, rng);
  if (family == "engine") return MakeEngine(n, cls, rng);
  if (family == "shapelet") return MakeShapelet(n, cls, rng);
  if (family == "lightcurve") return MakeLightCurve(n, cls, rng);
  if (family == "chaos") return MakeChaos(n, cls, rng);
  if (family == "worms") return MakeWorms(n, cls, rng);
  if (family == "wafer") return MakeWafer(n, cls, rng);
  if (family == "starshapes") return MakeStarShapes(n, cls, rng);
  if (family == "phoneme") return MakePhoneme(n, cls, rng);
  throw std::invalid_argument("unknown generator family: " + family);
}

/// Class proportions; uniform except the imbalanced wafer family.
std::vector<size_t> ClassSizes(const SyntheticInfo& info, size_t total) {
  std::vector<size_t> sizes(info.num_classes, 0);
  if (info.family == "wafer" && info.num_classes == 2 && total >= 4) {
    // Imbalanced 9:1, but never fewer than 2 minority samples and never
    // more than half the split.
    sizes[1] = std::min(total / 2, std::max<size_t>(2, total / 10));
    sizes[0] = total - sizes[1];
    return sizes;
  }
  for (int c = 0; c < info.num_classes; ++c) {
    sizes[c] = total / info.num_classes;
  }
  for (size_t r = 0; r < total % info.num_classes; ++r) ++sizes[r];
  return sizes;
}

Dataset MakePart(const SyntheticInfo& info, size_t total, Rng* rng) {
  Dataset ds(info.name);
  const std::vector<size_t> sizes = ClassSizes(info, total);
  for (int c = 0; c < info.num_classes; ++c) {
    for (size_t i = 0; i < sizes[c]; ++i) {
      ds.Add(MakeFamilySeries(info.family, info.length, c, rng), c);
    }
  }
  return ds;
}

}  // namespace

const std::vector<SyntheticInfo>& SyntheticRegistry() {
  // Lengths track the corresponding UCR families (the paper notes in §4.7
  // that MVG's statistics need reasonably long series to stabilise).
  static const std::vector<SyntheticInfo> kRegistry = {
      {"SynArrowHead", "shapes", 3, 36, 60, 256},
      {"SynBeetleFly", "shapes", 2, 20, 20, 512},
      {"SynECG5000", "ecg", 5, 100, 150, 140},
      {"SynElectricDevices", "devices", 7, 210, 140, 96},
      {"SynFordA", "engine", 2, 80, 120, 400},
      {"SynShapeletSim", "shapelet", 2, 20, 60, 500},
      {"SynLightCurves", "lightcurve", 3, 36, 60, 256},
      {"SynChaos", "chaos", 3, 36, 60, 300},
      {"SynWorms", "worms", 5, 50, 75, 384},
      {"SynWafer", "wafer", 2, 60, 100, 152},
      {"SynStarShapes", "starshapes", 4, 40, 60, 256},
      {"SynPhoneme", "phoneme", 6, 60, 90, 256},
  };
  return kRegistry;
}

DatasetSplit MakeSynthetic(const SyntheticInfo& info, uint64_t seed) {
  Rng rng(seed ^ std::hash<std::string>{}(info.name));
  DatasetSplit split;
  split.train = MakePart(info, info.train_size, &rng);
  split.test = MakePart(info, info.test_size, &rng);
  return split;
}

DatasetSplit MakeSyntheticByName(const std::string& name, uint64_t seed) {
  for (const auto& info : SyntheticRegistry()) {
    if (info.name == name) return MakeSynthetic(info, seed);
  }
  throw std::invalid_argument("unknown synthetic dataset: " + name);
}

Series GaussianNoise(size_t n, uint64_t seed, double stddev) {
  Rng rng(seed);
  Series s(n);
  for (double& v : s) v = rng.Gaussian(0.0, stddev);
  return s;
}

Series LogisticMap(size_t n, double r, double x0, size_t burn_in) {
  double x = std::min(0.999, std::max(0.001, x0));
  for (size_t i = 0; i < burn_in; ++i) x = r * x * (1.0 - x);
  Series s(n);
  for (size_t i = 0; i < n; ++i) {
    x = r * x * (1.0 - x);
    s[i] = x;
  }
  return s;
}

Series RandomWalk(size_t n, uint64_t seed, double drift, double volatility) {
  Rng rng(seed);
  Series s(n);
  double x = 0.0;
  for (size_t i = 0; i < n; ++i) {
    x += drift + rng.Gaussian(0.0, volatility);
    s[i] = x;
  }
  return s;
}

Series Sine(size_t n, double period, double amplitude, double phase) {
  Series s(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = amplitude *
           std::sin(2.0 * kPi * static_cast<double>(i) / period + phase);
  }
  return s;
}

}  // namespace mvg
