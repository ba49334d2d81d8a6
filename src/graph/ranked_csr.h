#ifndef MVG_GRAPH_RANKED_CSR_H_
#define MVG_GRAPH_RANKED_CSR_H_

// The degree-ordered relabelling of a graph that the motif counter and
// the coreness / assortativity statistics share. Vertices are ranked by
// (degree, id), so the ranks are already the bucket order that
// Batagelj-Zaversnik peeling starts from, and each edge is oriented
// towards its higher-rank endpoint, which is what the motif counter
// walks.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace mvg {

/// Vertex rank in the (degree, id) order. Every rank, degree and core
/// number of a graph with at most kMaxRankedVertices vertices fits.
using VertexRank = uint16_t;

/// Largest vertex count BuildRankedCsr accepts.
inline constexpr size_t kMaxRankedVertices = 65536;
static_assert(kMaxRankedVertices - 1 <= std::numeric_limits<VertexRank>::max(),
              "ranks must fit in VertexRank");

/// True when sum_v d_v^3 fits in uint64 for every graph on `n` vertices.
/// The complete graph maximises it at n (n - 1)^3.
constexpr bool CubeSumFitsU64(uint64_t n) {
  return n < 2 || ((std::numeric_limits<uint64_t>::max() / n) / (n - 1)) /
                          (n - 1) >=
                      n - 1;
}

/// Newman's three edge sums (paper Eq. 4, ref. [33]) as exact integers:
/// over every undirected edge {j, k} with endpoint degrees d_j, d_k,
/// jk = sum d_j d_k, sum = sum (d_j + d_k) and sq = sum (d_j^2 + d_k^2).
/// sq equals sum_v d_v^3, the largest of the three.
struct NewmanSums {
  uint64_t jk = 0;
  uint64_t sum = 0;
  uint64_t sq = 0;

  void Add(uint64_t dj, uint64_t dk) {
    jk += dj * dk;
    sum += dj + dk;
    sq += dj * dj + dk * dk;
  }
};
static_assert(CubeSumFitsU64(kMaxRankedVertices),
              "NewmanSums::sq must not overflow on a rankable graph");

/// The rank-ordered CSR of one graph, plus the scratch of the coreness
/// peel. A workspace that ranks graphs back to back (MotifScratch extends
/// this; VgWorkspace pools one) stops allocating once its arrays have
/// grown to the largest graph seen. Rank-valued arrays are 16-bit and CSR
/// positions 32-bit (2|E| < n^2 <= 2^32). Single-threaded state.
struct RankedCsr {
  std::vector<VertexRank> rank;      ///< vertex id -> rank by (degree, id)
  std::vector<VertexRank> order;     ///< rank -> vertex id
  std::vector<VertexRank> degree;    ///< degree by rank (ascending)
  std::vector<uint32_t> offsets;     ///< rank-ordered CSR, size n + 1
  std::vector<uint32_t> out_begin;   ///< first higher-rank entry per list
  std::vector<uint32_t> slot_shift;  ///< CSR position - out-list slot
  std::vector<uint32_t> cursor;      ///< CSR fill cursors
  std::vector<VertexRank> adj;       ///< rank-sorted neighbour lists, 2|E|
  // Batagelj-Zaversnik peel, all indexed by rank or position.
  std::vector<uint32_t> core;        ///< remaining degree, then core number
  std::vector<uint32_t> peel_order;  ///< position -> rank
  std::vector<uint32_t> peel_pos;    ///< rank -> position
  std::vector<uint32_t> peel_bin;    ///< first position per remaining degree

  size_t num_vertices() const { return degree.size(); }
};

/// Resizes a pooled scratch array to `n` elements, keeping no values.
/// Growth allocates exactly `n` (resize() would round up geometrically),
/// so a workspace's footprint is its largest graph, not up to twice that.
/// Arrays that must start zeroed use assign(n, 0), which sizes the same
/// way.
template <typename T>
void SizeTo(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) {
    v->assign(n, 0);
  } else {
    v->resize(n);
  }
}

/// Relabels `g` into `csr`: vertices ranked by (degree, id) with a stable
/// counting sort on degree, each neighbour list holding ranks in
/// ascending order, so a list is its lower-rank ("in") part followed by
/// its higher-rank ("out") part, split at out_begin. Out-list slots are
/// numbered 0..m-1 in CSR order, as p - slot_shift[r]. Throws
/// std::length_error for more than kMaxRankedVertices vertices.
void BuildRankedCsr(const Graph& g, RankedCsr* csr);

/// Newman's sums over every edge of a ranked graph, each edge taken once
/// from its lower-rank endpoint. CountMotifs accumulates the same sums in
/// its own oriented-edge loop.
NewmanSums SumNewmanTerms(const RankedCsr& csr);

/// Degree assortativity from Newman's sums over `num_edges` edges:
/// r = (jk/m - (sum/2m)^2) / (sq/2m - (sum/2m)^2), or 0 when the graph
/// has no edges or the denominator vanishes (every edge end has the same
/// degree, as in regular graphs).
double AssortativityFromSums(const NewmanSums& sums, size_t num_edges);

/// Batagelj-Zaversnik O(m) peel over the ranked CSR (paper ref. [5]).
/// The ranks are the degree-sorted order the algorithm starts from, so no
/// bucket sort is needed. Leaves the core number of rank r in core[r] and
/// returns the largest (0 for the empty graph).
uint32_t PeelCores(RankedCsr* csr);

}  // namespace mvg

#endif  // MVG_GRAPH_RANKED_CSR_H_
