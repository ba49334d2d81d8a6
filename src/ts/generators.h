#ifndef MVG_TS_GENERATORS_H_
#define MVG_TS_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ts/dataset.h"

namespace mvg {

/// Synthetic stand-ins for the UCR archive (see DESIGN.md §3/§4).
///
/// Each registry entry mimics the discriminative structure of one family of
/// UCR datasets used in the paper's Tables 2-3: planted local shapes
/// (shapelet-style sets), global periodic/chaotic structure (sensor and
/// acoustic sets), duty-cycle profiles (device sets), beat morphologies
/// (ECG sets), and so on. Generators are fully deterministic given a seed.
struct SyntheticInfo {
  std::string name;    ///< e.g. "SynArrowHead"
  std::string family;  ///< generator family id, e.g. "shapes"
  int num_classes = 2;
  size_t train_size = 40;
  size_t test_size = 60;
  size_t length = 128;
};

/// The default benchmark suite (12 datasets; see DESIGN.md §4).
const std::vector<SyntheticInfo>& SyntheticRegistry();

/// Generates the train/test split for a registry entry. Class balance
/// follows the family (SynWafer is intentionally imbalanced).
DatasetSplit MakeSynthetic(const SyntheticInfo& info, uint64_t seed = 42);

/// Lookup by name; throws std::invalid_argument for unknown names.
DatasetSplit MakeSyntheticByName(const std::string& name, uint64_t seed = 42);

/// --- Primitive generators (exposed for tests and examples) ---

/// White Gaussian noise of length n.
Series GaussianNoise(size_t n, uint64_t seed, double stddev = 1.0);

/// Logistic map x_{k+1} = r * x_k * (1 - x_k), discarding a burn-in.
Series LogisticMap(size_t n, double r, double x0, size_t burn_in = 100);

/// Random walk (cumulative sum of Gaussian steps) with optional drift.
Series RandomWalk(size_t n, uint64_t seed, double drift = 0.0,
                  double volatility = 1.0);

/// Sine wave with given period (in samples), amplitude and phase.
Series Sine(size_t n, double period, double amplitude = 1.0,
            double phase = 0.0);

}  // namespace mvg

#endif  // MVG_TS_GENERATORS_H_
