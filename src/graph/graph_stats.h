#ifndef MVG_GRAPH_GRAPH_STATS_H_
#define MVG_GRAPH_GRAPH_STATS_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/ranked_csr.h"

namespace mvg {

/// Statistical graph features used by the paper besides motif counts
/// (§2.2): density, k-core, assortativity and degree statistics. All
/// functions require a finalized graph.

/// Graph density 2|E| / (|V|(|V|-1)) (paper Eq. 2); 0 for |V| < 2.
double Density(const Graph& g);

/// Min/mean/max vertex degree.
struct DegreeStats {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
};
DegreeStats ComputeDegreeStats(const Graph& g);

/// Core number of every vertex via the Batagelj-Zaversnik O(m) bucket
/// algorithm (paper ref. [5]): ranks `g` (BuildRankedCsr) and runs
/// PeelCores, so at most kMaxRankedVertices vertices.
std::vector<size_t> CoreNumbers(const Graph& g);

/// Maximum core number (degeneracy) — the paper's K (Eq. 3).
size_t MaxCore(const Graph& g);

/// Degree assortativity coefficient: Pearson correlation of the degrees at
/// the two endpoints of each edge, computed with Newman's edge-sum formula
/// (paper Eq. 4, ref. [33]) over exact integer sums. Returns 0 when
/// degenerate (e.g. regular graphs, no edges). Ranks `g` like CoreNumbers.
double DegreeAssortativity(const Graph& g);

/// Number of values WriteGraphStatistics writes.
inline constexpr size_t kNumGraphStatistics = 6;

/// The paper's six statistics of `g` in feature order: density, min,
/// mean and max degree, max coreness and assortativity, written to
/// out[0, kNumGraphStatistics). `csr` must hold the ranked CSR of `g` and
/// `newman` its Newman sums, as CountMotifs(g, scratch) leaves them; the
/// coreness peel reuses `csr`'s pooled arrays. Each value equals the
/// standalone function's above, bit for bit.
void WriteGraphStatistics(const Graph& g, const NewmanSums& newman,
                          RankedCsr* csr, double* out);

/// True when the graph is connected (VGs always are; used as an invariant
/// check). The empty graph counts as connected.
bool IsConnected(const Graph& g);

/// Local clustering coefficient averaged over vertices (extension feature,
/// paper §6 future work mentions richer structural features).
double AverageClustering(const Graph& g);

/// Exact betweenness centrality of every vertex via Brandes' algorithm,
/// O(|V||E|) for unweighted graphs. Values are unnormalised pair counts;
/// pass through NormalizeBetweenness for the [0,1] convention. Extension
/// feature (paper §6: "centrality").
std::vector<double> BetweennessCentrality(const Graph& g);

/// Scales raw betweenness by 2 / ((n-1)(n-2)); identity for n < 3.
std::vector<double> NormalizeBetweenness(std::vector<double> centrality,
                                         size_t num_vertices);

/// Shannon entropy (nats) of the empirical degree distribution (paper §6:
/// "degree distribution entropy").
double DegreeDistributionEntropy(const Graph& g);

}  // namespace mvg

#endif  // MVG_GRAPH_GRAPH_STATS_H_
