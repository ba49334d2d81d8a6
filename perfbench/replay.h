// Stage-attributed replay of MvgClassifier::Predict through the public
// per-stage calls, for the benchmark's traced run.
#ifndef MVG_PERFBENCH_REPLAY_H_
#define MVG_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/mvg_classifier.h"
#include "ts/dataset.h"

namespace perfbench {

/// Seconds spent in each stage, summed over the replayed series, next to
/// the untraced single-thread Predict wall time of the same series.
struct StageTotals {
  double predict_wall = 0.0;  ///< untraced MvgClassifier::Predict.
  double frontend = 0.0;      ///< finite scan, copy, detrend, scales.
  double vg_build = 0.0;
  double hvg_build = 0.0;
  double motif_count = 0.0;   ///< CountMotifs.
  double motif_mpd = 0.0;     ///< MotifProbabilityDistribution.
  double graph_stats = 0.0;   ///< density, degrees, coreness, assortativity.
  double eval = 0.0;          ///< model().Predict on the feature vector.
  uint64_t vg_edges = 0;
  uint64_t hvg_edges = 0;
  uint64_t wedges = 0;        ///< sum over graphs of sum_v C(deg v, 2).
  size_t series = 0;          ///< series replayed.
  size_t mismatches = 0;      ///< vector != Extract, or label != Predict.
};

/// Replays the first `count` series of `series` on the calling thread.
/// For each one it times an untraced `model.Predict`, then rebuilds the
/// feature vector stage by stage, checks it bitwise against
/// `model.extractor().Extract`, and evaluates the model on it; the label
/// must equal both the untraced prediction and `expected[i]`.
StageTotals ReplayPredict(const mvg::MvgClassifier& model,
                          const std::vector<mvg::Series>& series,
                          const std::vector<int>& expected, size_t count);

}  // namespace perfbench

#endif  // MVG_PERFBENCH_REPLAY_H_
