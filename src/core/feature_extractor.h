#ifndef MVG_CORE_FEATURE_EXTRACTOR_H_
#define MVG_CORE_FEATURE_EXTRACTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ml/classifier.h"
#include "motif/motif_counts.h"
#include "ts/dataset.h"
#include "ts/multiscale.h"
#include "vg/visibility_graph.h"

namespace mvg {

/// Which visibility-graph types contribute features (paper §4.2.2).
enum class GraphMode {
  kHvgOnly,
  kVgOnly,
  kVgAndHvg,  ///< the paper's "UVG"/"MVG" combination.
};

/// Which feature groups are extracted per graph (paper §4.2.1).
enum class FeatureMode {
  kMpdsOnly,  ///< motif probability distributions only.
  kAll,       ///< MPDs + density, degree stats, max coreness, assortativity.
  /// kAll plus the extension features the paper's §6 proposes as future
  /// work: degree-distribution entropy, average clustering, betweenness
  /// centrality (mean/max), weighted-VG view-angle statistics and
  /// directed-VG in/out degree entropies (refs [41], §2.1).
  kExtended,
};

/// Full configuration of the MVG feature extraction (Algorithm 1).
struct MvgConfig {
  ScaleMode scale_mode = ScaleMode::kMultiscale;
  GraphMode graph_mode = GraphMode::kVgAndHvg;
  FeatureMode feature_mode = FeatureMode::kAll;
  /// Minimum length of the smallest scale (paper §3, tau = 15 default;
  /// 0 is legal).
  size_t tau = kDefaultTau;
  /// Remove the least-squares linear trend first (paper §2.1: VGs are not
  /// suitable for series with monotonic trends).
  bool detrend = true;
  VgAlgorithm vg_algorithm = VgAlgorithm::kDivideConquer;
};

/// Returns the configuration of one of the paper's Table 2 heuristic
/// columns: 'A' = UVG/HVG/MPDs, 'B' = UVG/HVG/All, 'C' = UVG/VG/MPDs,
/// 'D' = UVG/VG/All, 'E' = UVG/VG+HVG/All, 'F' = AMVG/VG+HVG/All,
/// 'G' = MVG/VG+HVG/All. Throws std::invalid_argument otherwise.
MvgConfig ConfigForHeuristicColumn(char column);

const char* ToString(GraphMode mode);
const char* ToString(FeatureMode mode);

/// Extracts the paper's statistical graph features from time series
/// (Algorithm 1): build the multiscale representation, convert every scale
/// to VG and/or HVG, and concatenate per-graph features. The process is
/// deterministic and parameter-free apart from the structural choices in
/// MvgConfig.
class MvgFeatureExtractor {
 public:
  MvgFeatureExtractor();
  explicit MvgFeatureExtractor(MvgConfig config);

  /// Feature vector of one series. Feature count depends only on the
  /// series length (through the number of scales). Non-finite samples
  /// (NaN, ±inf) are sanitized to nearby finite values first, so features
  /// are always finite; an empty series throws std::invalid_argument.
  std::vector<double> Extract(const Series& s) const;

  /// Pooled variant: every graph built during extraction (one VG and/or
  /// HVG per scale) goes through `ws`, so a workspace reused across a
  /// batch of series reaches zero steady-state allocation on the graph
  /// construction path. Results are identical to Extract(s).
  std::vector<double> Extract(const Series& s, VgWorkspace* ws) const;

  /// The one extraction body: replaces `*row` with the feature vector of
  /// `s`, reusing its capacity. With a warm `ws` and a `row` that has
  /// held a row of this length before, it allocates nothing (kMpdsOnly
  /// and kAll; kExtended's betweenness and weighted-VG statistics still
  /// allocate).
  void ExtractInto(const Series& s, VgWorkspace* ws,
                   std::vector<double>* row) const;

  /// Feature matrix for a whole dataset. Rows are padded with zeros to the
  /// widest vector so short series coexist with long ones. Extraction is
  /// embarrassingly parallel (paper §1); `num_threads > 1` fans the rows
  /// out across worker threads with identical results. Each worker thread
  /// pools one VgWorkspace across all its rows.
  Matrix ExtractAll(const Dataset& ds, size_t num_threads = 1) const;

  /// Names aligned with Extract() for a series of the given length, e.g.
  /// "T0.HVG.P(M44)", "T2.VG.assortativity" (used by the Fig. 10 case
  /// study).
  std::vector<std::string> FeatureNames(size_t series_length) const;

  /// Writes the FeaturesPerGraph() features of a single already-built
  /// graph to out[0, FeaturesPerGraph()): the 17-entry MPD plus (in
  /// kAll/kExtended modes) density, min/mean/max degree, max coreness,
  /// assortativity, and (kExtended) degree entropy, average clustering
  /// and mean/max normalised betweenness. One CountMotifs pass through
  /// `scratch` (Extract passes its workspace's pooled one) also yields
  /// the ranked CSR and Newman sums the kAll statistics are read from.
  void GraphFeatures(const Graph& g, MotifScratch* scratch,
                     double* out) const;

  /// Number of features per graph under the current FeatureMode.
  size_t FeaturesPerGraph() const;

  /// Number of per-scale series-level features (weighted/directed VG
  /// statistics); non-zero only in kExtended mode with VG enabled.
  size_t SeriesFeaturesPerScale() const;

  /// Feature layout of a series of one length: how many scales the
  /// multiscale chain emits and the total Extract() width. Cached per
  /// length (thread-safe, shared across copies), so FeatureNames and
  /// ExtractAll's zero-padding never rebuild the halving chain per call.
  struct ScaleLayout {
    size_t num_scales;
    size_t feature_width;
  };
  ScaleLayout LayoutForLength(size_t series_length) const;

  const MvgConfig& config() const { return config_; }

 private:
  struct LayoutCache;

  MvgConfig config_;
  std::shared_ptr<LayoutCache> layout_cache_;
};

}  // namespace mvg

#endif  // MVG_CORE_FEATURE_EXTRACTOR_H_
