#ifndef MVG_VG_VG_WORKSPACE_H_
#define MVG_VG_VG_WORKSPACE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "motif/motif_counts.h"
#include "ts/ts_kernels.h"

namespace mvg {

/// Reusable scratch for visibility-graph construction.
///
/// The batch workloads (MvgFeatureExtractor::ExtractAll, multiscale sweeps,
/// the perf suite) build thousands of graphs back to back; routing them
/// through one VgWorkspace pools the edge buffers, the counting-sort
/// scratch, the recursion/monotone stacks and the output CSR arrays, so
/// after the first few builds have grown the buffers to their steady-state
/// capacity, constructing another graph performs zero heap allocations.
///
/// Contract: a workspace is single-threaded state. The Graph reference
/// returned by a workspace-based builder points at `graph` and is
/// invalidated by the next build using the same workspace; copy (or
/// std::move(ws.graph)) to keep a result alive across builds.
struct VgWorkspace {
  GraphBuilder builder;
  /// Pending [l, r] ranges of the divide & conquer natural-VG builder.
  std::vector<std::pair<size_t, size_t>> range_stack;
  /// Monotone index stack of the O(n) HVG builder.
  std::vector<size_t> index_stack;
  /// Values s[index_stack[t]], kept parallel to index_stack so the HVG
  /// builder's pop loop can test four stack tops with one vector compare.
  std::vector<double> value_stack;
  /// Recycled output storage for workspace-based builds.
  Graph graph;
  /// Pooled buffers of the extraction front-end (sanitized/detrended T0 +
  /// the halved scales), so MvgFeatureExtractor::Extract allocates nothing
  /// on the series-assembly path either once warmed up.
  ts_kernels::MultiscaleScratch ts;
  /// Pooled scratch of the degree-ordered motif counter, so counting the
  /// motifs of each built graph allocates nothing once warmed up either.
  /// It also holds the ranked CSR the graph statistics are read from.
  MotifScratch motif;
  /// The feature row MvgClassifier::Predict extracts into, and the class
  /// probabilities the model writes, so a warm prediction allocates
  /// nothing at all (tree families, kMpdsOnly and kAll).
  std::vector<double> features;
  std::vector<double> proba;
};

}  // namespace mvg

#endif  // MVG_VG_VG_WORKSPACE_H_
