#include "core/feature_extractor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "graph/graph_stats.h"
#include "motif/motif_counts.h"
#include "obs/obs.h"
#include "ts/ts_kernels.h"
#include "util/parallel.h"
#include "vg/weighted_visibility_graph.h"

namespace mvg {

namespace {

/// Replaces non-finite samples so detrending and the visibility builders
/// see totally ordered values: +inf maps to strictly above the finite
/// maximum, -inf to strictly below the finite minimum, NaN to the finite
/// mean. When the finite magnitudes are large enough that the least-squares
/// sums in DetrendLinear could overflow, the series is first rescaled;
/// VG/HVG edge sets are invariant under positive affine maps, so graph
/// features are unaffected (weighted-VG view-angle features do change, the
/// price of keeping the arithmetic finite). Returns nullopt when the input
/// needs no fixing, so the common clean path copies nothing. A series with
/// no finite sample at all degrades to the corresponding constant/step
/// shape around zero.
void SanitizeNonFiniteInto(const Series& s, Series* out) {
  // The every-series part is the finite scan, vectorized in
  // ts_kernels::ScanFinite; lo/hi/finite are order-invariant, so they
  // match the old sequential std::isfinite loop.
  const ts_kernels::FiniteScan scan = ts_kernels::ScanFinite(s.data(),
                                                             s.size());
  const bool has_nonfinite = scan.finite != s.size();
  double lo = scan.lo;
  double hi = scan.hi;
  if (scan.finite == 0) {
    lo = 0.0;
    hi = 0.0;
  }
  // Rescaling keeps every derived value (pad, plateau levels, detrend
  // sums) comfortably finite even when the finite range spans most of the
  // double range — and is applied to all-finite series too, since
  // DetrendLinear's least-squares sums overflow just the same on them.
  constexpr double kSafeMagnitude = 1e150;
  const double amax = std::max(std::abs(lo), std::abs(hi));
  const double scale = amax > kSafeMagnitude ? kSafeMagnitude / amax : 1.0;
  out->assign(s.begin(), s.end());
  if (!has_nonfinite && scale == 1.0) return;
  if (has_nonfinite) {
    obs::Count(obs::PipelineMetrics::Get().extract_nonfinite_samples,
               s.size() - scan.finite);
  }
  lo *= scale;
  hi *= scale;
  // Mean of the *scaled* finite values: |v * scale| <= kSafeMagnitude, so
  // the accumulation cannot overflow the way a raw sum of ~1e308 samples
  // would. This branch is the rare dirty path; it stays scalar.
  double sum = 0.0;
  for (double v : s) {
    if (std::isfinite(v)) sum += v * scale;
  }
  const double mean =
      scan.finite > 0 ? sum / static_cast<double>(scan.finite) : 0.0;
  const double pad = std::max(hi - lo, 1.0);
  const double above = hi + pad;
  const double below = lo - pad;
  for (double& v : *out) {
    if (std::isnan(v)) {
      v = mean;
    } else if (v == std::numeric_limits<double>::infinity()) {
      v = above;
    } else if (v == -std::numeric_limits<double>::infinity()) {
      v = below;
    } else {
      v *= scale;
    }
  }
}

}  // namespace

struct MvgFeatureExtractor::LayoutCache {
  std::mutex mu;
  std::unordered_map<size_t, ScaleLayout> by_length;
};

MvgConfig ConfigForHeuristicColumn(char column) {
  MvgConfig c;
  switch (column) {
    case 'A':
      c.scale_mode = ScaleMode::kUniscale;
      c.graph_mode = GraphMode::kHvgOnly;
      c.feature_mode = FeatureMode::kMpdsOnly;
      return c;
    case 'B':
      c.scale_mode = ScaleMode::kUniscale;
      c.graph_mode = GraphMode::kHvgOnly;
      c.feature_mode = FeatureMode::kAll;
      return c;
    case 'C':
      c.scale_mode = ScaleMode::kUniscale;
      c.graph_mode = GraphMode::kVgOnly;
      c.feature_mode = FeatureMode::kMpdsOnly;
      return c;
    case 'D':
      c.scale_mode = ScaleMode::kUniscale;
      c.graph_mode = GraphMode::kVgOnly;
      c.feature_mode = FeatureMode::kAll;
      return c;
    case 'E':
      c.scale_mode = ScaleMode::kUniscale;
      c.graph_mode = GraphMode::kVgAndHvg;
      c.feature_mode = FeatureMode::kAll;
      return c;
    case 'F':
      c.scale_mode = ScaleMode::kApproximateMultiscale;
      c.graph_mode = GraphMode::kVgAndHvg;
      c.feature_mode = FeatureMode::kAll;
      return c;
    case 'G':
      c.scale_mode = ScaleMode::kMultiscale;
      c.graph_mode = GraphMode::kVgAndHvg;
      c.feature_mode = FeatureMode::kAll;
      return c;
    default:
      throw std::invalid_argument("ConfigForHeuristicColumn: want 'A'..'G'");
  }
}

const char* ToString(GraphMode mode) {
  switch (mode) {
    case GraphMode::kHvgOnly:
      return "HVG";
    case GraphMode::kVgOnly:
      return "VG";
    case GraphMode::kVgAndHvg:
      return "VG+HVG";
  }
  return "?";
}

const char* ToString(FeatureMode mode) {
  switch (mode) {
    case FeatureMode::kMpdsOnly:
      return "MPDs";
    case FeatureMode::kAll:
      return "All";
    case FeatureMode::kExtended:
      return "Extended";
  }
  return "?";
}

MvgFeatureExtractor::MvgFeatureExtractor()
    : config_(MvgConfig()), layout_cache_(std::make_shared<LayoutCache>()) {}

MvgFeatureExtractor::MvgFeatureExtractor(MvgConfig config)
    : config_(config), layout_cache_(std::make_shared<LayoutCache>()) {}

MvgFeatureExtractor::ScaleLayout MvgFeatureExtractor::LayoutForLength(
    size_t series_length) const {
  {
    std::lock_guard<std::mutex> lock(layout_cache_->mu);
    const auto it = layout_cache_->by_length.find(series_length);
    if (it != layout_cache_->by_length.end()) return it->second;
  }
  const size_t num_scales = ts_kernels::NumScalesForLength(
      series_length, config_.scale_mode, config_.tau);
  const size_t graphs =
      (config_.graph_mode != GraphMode::kHvgOnly ? 1u : 0u) +
      (config_.graph_mode != GraphMode::kVgOnly ? 1u : 0u);
  const ScaleLayout layout{
      num_scales,
      num_scales * (graphs * FeaturesPerGraph() + SeriesFeaturesPerScale())};
  std::lock_guard<std::mutex> lock(layout_cache_->mu);
  layout_cache_->by_length.emplace(series_length, layout);
  return layout;
}

size_t MvgFeatureExtractor::FeaturesPerGraph() const {
  // 17 motif probabilities; + 6 statistical features in kAll (density,
  // min/mean/max degree, max coreness, assortativity); + 4 more in
  // kExtended (degree entropy, clustering, mean/max betweenness).
  switch (config_.feature_mode) {
    case FeatureMode::kMpdsOnly:
      return kNumMotifs;
    case FeatureMode::kAll:
      return kNumMotifs + kNumGraphStatistics;
    case FeatureMode::kExtended:
      return kNumMotifs + kNumGraphStatistics + 4;
  }
  return kNumMotifs;
}

size_t MvgFeatureExtractor::SeriesFeaturesPerScale() const {
  // 6 weighted-VG view-angle statistics + in/out directed degree
  // entropies, only when the natural VG participates.
  return config_.feature_mode == FeatureMode::kExtended &&
                 config_.graph_mode != GraphMode::kHvgOnly
             ? 8
             : 0;
}

void MvgFeatureExtractor::GraphFeatures(const Graph& g, MotifScratch* scratch,
                                        double* out) const {
  const auto mpd = MotifProbabilityDistribution(CountMotifs(g, scratch));
  out = std::copy(mpd.begin(), mpd.end(), out);
  if (config_.feature_mode == FeatureMode::kMpdsOnly) return;
  WriteGraphStatistics(g, scratch->newman, scratch, out);
  out += kNumGraphStatistics;
  if (config_.feature_mode == FeatureMode::kExtended) {
    out[0] = DegreeDistributionEntropy(g);
    out[1] = AverageClustering(g);
    const std::vector<double> bc =
        NormalizeBetweenness(BetweennessCentrality(g), g.num_vertices());
    double mean_bc = 0.0, max_bc = 0.0;
    for (double c : bc) {
      mean_bc += c;
      max_bc = std::max(max_bc, c);
    }
    out[2] = bc.empty() ? 0.0 : mean_bc / static_cast<double>(bc.size());
    out[3] = max_bc;
  }
}

std::vector<double> MvgFeatureExtractor::Extract(const Series& s) const {
  VgWorkspace ws;
  return Extract(s, &ws);
}

std::vector<double> MvgFeatureExtractor::Extract(const Series& s,
                                                 VgWorkspace* ws) const {
  std::vector<double> row;
  ExtractInto(s, ws, &row);
  return row;
}

void MvgFeatureExtractor::ExtractInto(const Series& s, VgWorkspace* ws,
                                      std::vector<double>* row) const {
  if (s.empty()) throw std::invalid_argument("Extract: empty series");
  obs::ObsSpan span(obs::PipelineMetrics::Get().feature_extract_seconds);
  // Streaming front-end on the pooled scratch: sanitize into ts.base,
  // detrend it in place, then derive each scale from the previous one's
  // pairwise partial sums — all ts_kernels lane kernels, zero allocations
  // once the workspace has warmed up to the batch's longest series.
  ts_kernels::MultiscaleScratch& ts = ws->ts;
  SanitizeNonFiniteInto(s, &ts.base);
  if (config_.detrend) {
    ts_kernels::DetrendInPlace(ts.base.data(), ts.base.size());
  }
  ts_kernels::BuildScalesInto(config_.scale_mode, config_.tau, &ts);
  // Reserved once to the layout width, so the per-graph resizes below
  // never reallocate.
  std::vector<double>& features = *row;
  features.clear();
  features.reserve(LayoutForLength(s.size()).feature_width);
  const size_t per_graph = FeaturesPerGraph();
  const auto add_graph = [&](const Graph& g) {
    const size_t at = features.size();
    features.resize(at + per_graph);
    GraphFeatures(g, &ws->motif, features.data() + at);
  };
  const bool want_series_features = SeriesFeaturesPerScale() > 0;
  for (const Series* scale_ptr : ts.view) {
    const Series& scale = *scale_ptr;
    // The natural VG is built once per scale and serves the graph
    // features, the weighted view-angle statistics and the directed
    // degree entropies; its derived numbers are staged so the feature
    // order (VG, HVG, WVG) survives the workspace reuse (building the
    // HVG below recycles ws->graph).
    WeightedVisibilityGraph::WeightStats wstats;
    double in_entropy = 0.0, out_entropy = 0.0;
    if (config_.graph_mode != GraphMode::kHvgOnly) {
      const Graph& vg = BuildVisibilityGraph(scale, ws, config_.vg_algorithm);
      add_graph(vg);
      if (want_series_features) {
        wstats = WeightedVisibilityGraph::FromGraph(vg, scale)
                     .ComputeWeightStats();
        const DirectedVgDegrees dd = ComputeDirectedVgDegrees(vg);
        in_entropy = DegreeSequenceEntropy(dd.in);
        out_entropy = DegreeSequenceEntropy(dd.out);
      }
    }
    if (config_.graph_mode != GraphMode::kVgOnly) {
      add_graph(BuildHorizontalVisibilityGraph(scale, ws));
    }
    if (want_series_features) {
      features.push_back(wstats.mean);
      features.push_back(wstats.stddev);
      features.push_back(wstats.max);
      features.push_back(wstats.mean_strength);
      features.push_back(wstats.max_strength);
      features.push_back(wstats.strength_entropy);
      features.push_back(in_entropy);
      features.push_back(out_entropy);
    }
  }
}

Matrix MvgFeatureExtractor::ExtractAll(const Dataset& ds,
                                       size_t num_threads) const {
  Matrix x(ds.size());
  // Zero-padding width from the cached per-length layout — known before
  // any extraction runs, so rows are padded in place by their own worker
  // instead of a post-hoc scan-and-resize pass.
  size_t width = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    width = std::max(width, LayoutForLength(ds.series(i).size()).feature_width);
  }
  // One pooled workspace per executor worker slot: a slot is owned by
  // exactly one pool thread for the duration of the loop (stolen chunks
  // run under the thief's own slot), so the workspaces need no locking
  // and stay warm across the whole batch.
  std::vector<VgWorkspace> workspaces(MaxWorkers(ds.size(), num_threads));
  ParallelForWorker(ds.size(), num_threads, [&](size_t worker, size_t i) {
    x[i].reserve(width);
    ExtractInto(ds.series(i), &workspaces[worker], &x[i]);
    x[i].resize(width, 0.0);
  });
  return x;
}

std::vector<std::string> MvgFeatureExtractor::FeatureNames(
    size_t series_length) const {
  const size_t num_scales = LayoutForLength(series_length).num_scales;
  const size_t first = FirstScaleIndex(config_.scale_mode);
  std::vector<std::string> names;
  auto add_graph = [&](const std::string& prefix) {
    for (const std::string& m : MotifNames()) {
      names.push_back(prefix + ".P(" + m + ")");
    }
    if (config_.feature_mode != FeatureMode::kMpdsOnly) {
      names.push_back(prefix + ".density");
      names.push_back(prefix + ".min_degree");
      names.push_back(prefix + ".mean_degree");
      names.push_back(prefix + ".max_degree");
      names.push_back(prefix + ".max_core");
      names.push_back(prefix + ".assortativity");
    }
    if (config_.feature_mode == FeatureMode::kExtended) {
      names.push_back(prefix + ".degree_entropy");
      names.push_back(prefix + ".clustering");
      names.push_back(prefix + ".mean_betweenness");
      names.push_back(prefix + ".max_betweenness");
    }
  };
  for (size_t i = 0; i < num_scales; ++i) {
    const std::string scale = "T" + std::to_string(first + i);
    if (config_.graph_mode != GraphMode::kHvgOnly) add_graph(scale + ".VG");
    if (config_.graph_mode != GraphMode::kVgOnly) add_graph(scale + ".HVG");
    if (SeriesFeaturesPerScale() > 0) {
      for (const char* f :
           {"weight_mean", "weight_std", "weight_max", "strength_mean",
            "strength_max", "strength_entropy", "in_degree_entropy",
            "out_degree_entropy"}) {
        names.push_back(scale + ".WVG." + std::string(f));
      }
    }
  }
  return names;
}

}  // namespace mvg
