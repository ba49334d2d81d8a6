#ifndef MVG_MOTIF_MOTIF_COUNTS_H_
#define MVG_MOTIF_MOTIF_COUNTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/ranked_csr.h"

namespace mvg {

/// Number of motif classes tracked (paper Table 1): 2 two-node, 4 three-
/// node and 11 four-node induced subgraph types.
inline constexpr size_t kNumMotifs = 17;

/// Induced counts of every 2-, 3- and 4-node motif (paper Table 1).
///
/// Naming follows the paper: M21 = edge, M22 = independent pair;
/// M31 = triangle, M32 = 2-edge path, M33 = edge + isolated vertex,
/// M34 = 3 isolated vertices; M41 = 4-clique, M42 = chordal cycle
/// (diamond), M43 = tailed triangle, M44 = 4-cycle, M45 = 3-star,
/// M46 = 4-path, M47 = triangle + isolated vertex, M48 = 2-edge path +
/// isolated vertex (the paper's Table 1 prints "4-node-star" for this row;
/// the fifth disconnected type on 4 nodes is the wedge), M49 = two
/// independent edges, M410 = edge + 2 isolated vertices, M411 = 4 isolated
/// vertices.
struct MotifCounts {
  int64_t m21 = 0, m22 = 0;
  int64_t m31 = 0, m32 = 0, m33 = 0, m34 = 0;
  int64_t m41 = 0, m42 = 0, m43 = 0, m44 = 0, m45 = 0, m46 = 0;
  int64_t m47 = 0, m48 = 0, m49 = 0, m410 = 0, m411 = 0;

  /// Counts in canonical order M21..M411.
  std::array<int64_t, kNumMotifs> ToArray() const;
};

/// Canonical motif names ("M21", ..., "M411") in ToArray() order.
const std::array<std::string, kNumMotifs>& MotifNames();

/// Largest vertex count CountMotifs accepts. The 4-subset total C(n, 4)
/// is formed as n(n-1)(n-2)(n-3) / 24, and that product overflows int64
/// from n = 55,111 on; every other 4-node accumulator stays below about
/// n^4 / 2 on the complete graph. Under this limit every rank, degree,
/// per-edge triangle count and per-vertex 2-path count fits in 16 bits,
/// and every rank-ordered CSR offset (at most 2|E| < n^2) in 32.
inline constexpr size_t kMaxMotifVertices = 55110;
static_assert(kMaxMotifVertices <= kMaxRankedVertices,
              "CountMotifs ranks every graph it accepts");
// The Newman sums ride along in the motif pass. Their largest, sum_v
// d_v^3, reaches 9,223,547,791,334,198,190 on K_n at this limit, above
// INT64_MAX, so they are unsigned.
static_assert(CubeSumFitsU64(kMaxMotifVertices),
              "NewmanSums::sq must not overflow on a countable graph");

/// Reusable scratch of the degree-ordered motif counter: the ranked CSR
/// of the graph last counted, the counter's own per-edge and per-vertex
/// arrays, and the Newman sums of that graph. A workspace that counts
/// graphs back to back (VgWorkspace pools one) stops allocating once its
/// arrays have grown to the largest graph seen. Single-threaded state,
/// like VgWorkspace.
struct MotifScratch : RankedCsr {
  std::vector<VertexRank> edge_triangles;  ///< sink 0, then T_e per out slot
  std::vector<uint32_t> out_slot;    ///< out-list slot + 1 per marked vertex
  std::vector<uint32_t> common_tag;  ///< K4 membership tag per vertex
  std::vector<VertexRank> common;    ///< common out-neighbours of one edge
  std::vector<VertexRank> paths;     ///< 2-path counts per far endpoint
  std::vector<VertexRank> touched;   ///< far endpoints with paths > 0
  NewmanSums newman;                 ///< of the graph last counted
};

/// Counts all induced motifs up to size 4 with PGD-style combinatorial
/// equations (triangle counts per edge, wedge sums, degree sums, disjoint
/// edge pairs, plus the non-induced -> induced conversion) — no 4-subset
/// enumeration. Vertices are ranked by (degree, id) and each edge is
/// oriented towards the higher rank (Chiba & Nishizeki 1985): every
/// triangle, K4 and 4-cycle is then found exactly once, from its
/// lowest-rank (triangle, K4) or highest-rank (4-cycle) vertex. For a
/// graph with m edges and arboricity alpha the triangle and 4-cycle passes
/// take O(m * alpha) and the K4 pass O(m * alpha^2), instead of the
/// O(sum_v deg(v)^2) a walk over full adjacencies costs on hub vertices.
/// The same oriented-edge loop accumulates Newman's assortativity sums
/// into scratch->newman, and the scratch keeps the ranked CSR, so the
/// graph statistics of WriteGraphStatistics need no second pass over `g`.
/// Throws std::length_error for graphs with more than kMaxMotifVertices
/// vertices. The scratch overload allocates nothing once `scratch` is warm.
MotifCounts CountMotifs(const Graph& g, MotifScratch* scratch);

/// CountMotifs over a call-local scratch.
MotifCounts CountMotifs(const Graph& g);

/// O(n^4) brute-force enumerator used by the property tests (n <= ~40).
MotifCounts CountMotifsBruteForce(const Graph& g);

/// Motif probability distribution (paper Def. 3.4 + §3.1): the 17 counts
/// normalised within the five connectivity groups {M21,M22}, {M31,M32},
/// {M33,M34}, {M41..M46}, {M47..M411}. Groups with zero total map to all
/// zeros.
std::array<double, kNumMotifs> MotifProbabilityDistribution(
    const MotifCounts& counts);

}  // namespace mvg

#endif  // MVG_MOTIF_MOTIF_COUNTS_H_
