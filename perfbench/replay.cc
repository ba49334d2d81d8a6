#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "graph/graph_stats.h"
#include "motif/motif_counts.h"
#include "ts/ts_kernels.h"
#include "vg/visibility_graph.h"
#include "vg/vg_workspace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Appends one graph's features exactly as MvgFeatureExtractor::
/// GraphFeatures orders them, charging each call to its stage.
void AppendGraphFeatures(const mvg::Graph& g, mvg::FeatureMode mode,
                         std::vector<double>* out, StageTotals* t) {
  for (mvg::Graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const uint64_t d = g.Degree(v);
    if (d > 1) t->wedges += d * (d - 1) / 2;
  }
  auto t0 = Clock::now();
  const mvg::MotifCounts counts = mvg::CountMotifs(g);
  t->motif_count += Since(t0);

  t0 = Clock::now();
  const auto mpd = mvg::MotifProbabilityDistribution(counts);
  t->motif_mpd += Since(t0);
  out->insert(out->end(), mpd.begin(), mpd.end());

  if (mode == mvg::FeatureMode::kMpdsOnly) return;
  t0 = Clock::now();
  const double density = mvg::Density(g);
  const mvg::DegreeStats ds = mvg::ComputeDegreeStats(g);
  const size_t max_core = mvg::MaxCore(g);
  const double assortativity = mvg::DegreeAssortativity(g);
  t->graph_stats += Since(t0);
  out->insert(out->end(), {density, ds.min, ds.mean, ds.max,
                           static_cast<double>(max_core), assortativity});
}

/// The extractor's sanitize step copies a series unchanged when every
/// sample is finite and small enough that detrending cannot overflow;
/// the replay only models that path.
bool IsCleanSeries(const mvg::ts_kernels::FiniteScan& scan, size_t n) {
  constexpr double kSafeMagnitude = 1e150;
  return scan.finite == n &&
         std::max(std::abs(scan.lo), std::abs(scan.hi)) <= kSafeMagnitude;
}

}  // namespace

StageTotals ReplayPredict(const mvg::MvgClassifier& model,
                          const std::vector<mvg::Series>& series,
                          const std::vector<int>& expected, size_t count) {
  const mvg::MvgFeatureExtractor& extractor = model.extractor();
  const mvg::MvgConfig& cfg = extractor.config();
  // Series-level (kExtended) features and scaled models (SVM, stacking)
  // take steps this replay does not time; the benchmark never uses them.
  const bool replayable =
      cfg.feature_mode != mvg::FeatureMode::kExtended &&
      (model.config().model == mvg::MvgModel::kXgboost ||
       model.config().model == mvg::MvgModel::kRandomForest);

  StageTotals t;
  mvg::VgWorkspace ws;
  std::vector<double> features;
  count = std::min(count, series.size());
  for (size_t i = 0; i < count; ++i) {
    const mvg::Series& s = series[i];
    ++t.series;

    auto t0 = Clock::now();
    const int untraced = model.Predict(s, &ws);
    t.predict_wall += Since(t0);

    t0 = Clock::now();
    const mvg::ts_kernels::FiniteScan scan =
        mvg::ts_kernels::ScanFinite(s.data(), s.size());
    mvg::ts_kernels::MultiscaleScratch& ts = ws.ts;
    ts.base.assign(s.begin(), s.end());
    if (cfg.detrend) {
      mvg::ts_kernels::DetrendInPlace(ts.base.data(), ts.base.size());
    }
    mvg::ts_kernels::BuildScalesInto(cfg.scale_mode, cfg.tau, &ts);
    t.frontend += Since(t0);
    if (!replayable || !IsCleanSeries(scan, s.size())) {
      ++t.mismatches;
      continue;
    }

    features.clear();
    for (const mvg::Series* scale : ts.view) {
      if (cfg.graph_mode != mvg::GraphMode::kHvgOnly) {
        t0 = Clock::now();
        const mvg::Graph& vg =
            mvg::BuildVisibilityGraph(*scale, &ws, cfg.vg_algorithm);
        t.vg_build += Since(t0);
        t.vg_edges += vg.num_edges();
        AppendGraphFeatures(vg, cfg.feature_mode, &features, &t);
      }
      if (cfg.graph_mode != mvg::GraphMode::kVgOnly) {
        t0 = Clock::now();
        const mvg::Graph& hvg = mvg::BuildHorizontalVisibilityGraph(*scale, &ws);
        t.hvg_build += Since(t0);
        t.hvg_edges += hvg.num_edges();
        AppendGraphFeatures(hvg, cfg.feature_mode, &features, &t);
      }
    }
    features.resize(model.feature_width(), 0.0);

    t0 = Clock::now();
    const int label = model.model().Predict(features);
    t.eval += Since(t0);

    std::vector<double> reference = extractor.Extract(s, &ws);
    reference.resize(model.feature_width(), 0.0);
    const bool same_vector =
        std::memcmp(reference.data(), features.data(),
                    features.size() * sizeof(double)) == 0;
    if (!same_vector || label != untraced || label != expected[i]) {
      ++t.mismatches;
    }
  }
  return t;
}

}  // namespace perfbench
