#ifndef MVG_TESTS_GRAPH_STATS_ORACLE_H_
#define MVG_TESTS_GRAPH_STATS_ORACLE_H_

// The coreness and assortativity implementations that walked the
// id-sorted CSR directly, kept as test oracles after the library moved
// both statistics onto the motif counter's ranked CSR: a size_t
// Batagelj-Zaversnik peel with its own degree bucket sort, and Newman's
// sums accumulated in doubles, four edges per F64x4 block.
// graph_stats_test requires the library to match them bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_kernels.h"
#include "util/simd.h"

namespace mvg {
namespace oracle {

inline std::vector<size_t> CoreNumbers(const Graph& g) {
  // Batagelj & Zaversnik (2003): bucket sort vertices by degree, then
  // repeatedly remove a minimum-degree vertex, decrementing neighbors.
  const size_t n = g.num_vertices();
  std::vector<size_t> degree(n), core(n, 0);
  size_t max_degree = 0;
  for (size_t v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // bin[d] = start offset of vertices with degree d in `order`.
  std::vector<size_t> bin(max_degree + 2, 0);
  for (size_t v = 0; v < n; ++v) ++bin[degree[v]];
  size_t start = 0;
  for (size_t d = 0; d <= max_degree; ++d) {
    const size_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<size_t> order(n), pos(n);
  for (size_t v = 0; v < n; ++v) {
    pos[v] = bin[degree[v]];
    order[pos[v]] = v;
    ++bin[degree[v]];
  }
  // Restore bin starts.
  for (size_t d = max_degree; d >= 1; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  for (size_t i = 0; i < n; ++i) {
    const size_t v = order[i];
    core[v] = degree[v];
    for (Graph::VertexId u : g.Neighbors(static_cast<Graph::VertexId>(v))) {
      if (degree[u] > degree[v]) {
        // Move u to the front of its bucket and decrement its degree.
        const size_t du = degree[u];
        const size_t pu = pos[u];
        const size_t pw = bin[du];
        const size_t w = order[pw];
        if (u != w) {
          std::swap(order[pu], order[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --degree[u];
      }
    }
  }
  return core;
}

inline size_t MaxCore(const Graph& g) {
  const std::vector<size_t> core = oracle::CoreNumbers(g);
  size_t mx = 0;
  for (size_t c : core) mx = std::max(mx, c);
  return mx;
}

inline double DegreeAssortativity(const Graph& g) {
  // Newman's formula over edges: r = (M^-1 S_jk - [M^-1 S_half]^2) /
  //                                  (M^-1 S_sq  - [M^-1 S_half]^2)
  // with S_jk = sum j*k, S_half = sum (j+k)/2, S_sq = sum (j^2+k^2)/2
  // over all edges, j/k being endpoint degrees. The double sums are
  // exact while sum_v d_v^3 < 2^53, which holds for every graph with at
  // most 9742 vertices.
  const size_t m = g.num_edges();
  if (m == 0) return 0.0;
  const size_t n = g.num_vertices();
  std::vector<double> deg(n);
  for (size_t v = 0; v < n; ++v) deg[v] = static_cast<double>(g.Degree(v));
  simd::F64x4 v_jk = simd::F64x4::Zero();
  simd::F64x4 v_sum = simd::F64x4::Zero();   // sum of dj + dk (halved below)
  simd::F64x4 v_sq2 = simd::F64x4::Zero();   // sum of dj^2 + dk^2
  double s_jk = 0.0, s_sum = 0.0, s_sq2 = 0.0;
  for (Graph::VertexId u = 0; u < n; ++u) {
    const Graph::NeighborSpan nb = g.Neighbors(u);
    const double dj = deg[u];
    // Neighbors are sorted: the v > u suffix starts after the first
    // neighbor greater than u.
    size_t i = FirstGreater(nb.data(), nb.size(), u);
    const simd::F64x4 djv = simd::F64x4::Broadcast(dj);
    const simd::F64x4 dj2v = simd::F64x4::Broadcast(dj * dj);
    for (; i + 4 <= nb.size(); i += 4) {
      const simd::F64x4 dk =
          simd::F64x4::Set(deg[nb[i]], deg[nb[i + 1]], deg[nb[i + 2]],
                           deg[nb[i + 3]]);
      v_jk = v_jk + djv * dk;
      v_sum = v_sum + (djv + dk);
      v_sq2 = v_sq2 + (dj2v + dk * dk);
    }
    for (; i < nb.size(); ++i) {
      const double dk = deg[nb[i]];
      s_jk += dj * dk;
      s_sum += dj + dk;
      s_sq2 += dj * dj + dk * dk;
    }
  }
  const double s_half = 0.5 * (s_sum + ReduceAddOrdered(v_sum));
  s_jk += ReduceAddOrdered(v_jk);
  const double s_sq = 0.5 * (s_sq2 + ReduceAddOrdered(v_sq2));
  const double inv_m = 1.0 / static_cast<double>(m);
  const double num = inv_m * s_jk - (inv_m * s_half) * (inv_m * s_half);
  const double den = inv_m * s_sq - (inv_m * s_half) * (inv_m * s_half);
  if (std::abs(den) < 1e-12) return 0.0;
  return num / den;
}

}  // namespace oracle
}  // namespace mvg

#endif  // MVG_TESTS_GRAPH_STATS_ORACLE_H_
