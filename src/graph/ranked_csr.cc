#include "graph/ranked_csr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mvg {

void BuildRankedCsr(const Graph& g, RankedCsr* csr) {
  if (g.num_vertices() > kMaxRankedVertices) {
    throw std::length_error(
        "BuildRankedCsr: graph has more than kMaxRankedVertices vertices");
  }
  const uint32_t n = static_cast<uint32_t>(g.num_vertices());
  const size_t* goff = g.offset_data();
  const auto degree_of = [goff](uint32_t v) {
    return static_cast<uint32_t>(goff[v + 1] - goff[v]);
  };
  uint32_t max_degree = 0;
  for (uint32_t v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, degree_of(v));
  }
  // Counting sort on degree; visiting ids in ascending order breaks ties
  // by id. The fill cursors are not needed yet, so they hold the first
  // free rank per degree meanwhile.
  std::vector<uint32_t>& first = csr->cursor;
  first.assign(size_t{max_degree} + 1, 0);
  for (uint32_t v = 0; v < n; ++v) ++first[degree_of(v)];
  uint32_t running = 0;
  for (uint32_t& c : first) {
    const uint32_t count = c;
    c = running;
    running += count;
  }
  SizeTo(&csr->rank, n);
  SizeTo(&csr->order, n);
  SizeTo(&csr->degree, n);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t d = degree_of(v);
    const uint32_t r = first[d]++;
    csr->rank[v] = static_cast<VertexRank>(r);
    csr->order[r] = static_cast<VertexRank>(v);
    csr->degree[r] = static_cast<VertexRank>(d);
  }

  SizeTo(&csr->offsets, size_t{n} + 1);
  csr->offsets[0] = 0;
  for (uint32_t r = 0; r < n; ++r) {
    csr->offsets[r + 1] = csr->offsets[r] + csr->degree[r];
  }
  // Visiting sources in rank order appends each list in ascending rank
  // order; when the source reaches rank r itself, list r holds exactly
  // its lower-rank neighbours, which marks the start of its out part.
  // slot_shift[r] counts the in-part entries of lists 0..r.
  SizeTo(&csr->cursor, n);
  std::copy(csr->offsets.begin(), csr->offsets.end() - 1,
            csr->cursor.begin());
  SizeTo(&csr->out_begin, n);
  SizeTo(&csr->slot_shift, n);
  SizeTo(&csr->adj, csr->offsets[n]);
  uint32_t in_entries = 0;
  for (uint32_t r = 0; r < n; ++r) {
    csr->out_begin[r] = csr->cursor[r];
    in_entries += csr->cursor[r] - csr->offsets[r];
    csr->slot_shift[r] = in_entries;
    for (const Graph::VertexId v : g.Neighbors(csr->order[r])) {
      csr->adj[csr->cursor[csr->rank[v]]++] = static_cast<VertexRank>(r);
    }
  }
}

NewmanSums SumNewmanTerms(const RankedCsr& csr) {
  const size_t n = csr.num_vertices();
  const uint32_t* off = csr.offsets.data();
  const VertexRank* adj = csr.adj.data();
  const VertexRank* deg = csr.degree.data();
  NewmanSums sums;
  for (size_t r = 0; r < n; ++r) {
    for (uint32_t p = csr.out_begin[r]; p < off[r + 1]; ++p) {
      sums.Add(deg[r], deg[adj[p]]);
    }
  }
  return sums;
}

double AssortativityFromSums(const NewmanSums& sums, size_t num_edges) {
  // r = (M^-1 S_jk - [M^-1 S_half]^2) / (M^-1 S_sq - [M^-1 S_half]^2)
  // with S_half = sum / 2 and S_sq = sq / 2. The integer sums are exact;
  // each converts to the nearest double, which is the sum itself while it
  // stays below 2^53. sq, the largest, is sum_v d_v^3 <= n (n - 1)^3, so
  // every graph with n <= 9742 converts exactly, and the operations below
  // are those of the earlier double-accumulating code, which was exact
  // only in that range.
  if (num_edges == 0) return 0.0;
  const double s_jk = static_cast<double>(sums.jk);
  const double s_half = 0.5 * static_cast<double>(sums.sum);
  const double s_sq = 0.5 * static_cast<double>(sums.sq);
  const double inv_m = 1.0 / static_cast<double>(num_edges);
  const double num = inv_m * s_jk - (inv_m * s_half) * (inv_m * s_half);
  const double den = inv_m * s_sq - (inv_m * s_half) * (inv_m * s_half);
  if (std::abs(den) < 1e-12) return 0.0;
  return num / den;
}

uint32_t PeelCores(RankedCsr* csr) {
  const uint32_t n = static_cast<uint32_t>(csr->num_vertices());
  if (n == 0) return 0;
  const VertexRank* deg = csr->degree.data();
  SizeTo(&csr->core, n);
  SizeTo(&csr->peel_order, n);
  SizeTo(&csr->peel_pos, n);
  SizeTo(&csr->peel_bin, size_t{deg[n - 1]} + 1);
  uint32_t* core = csr->core.data();
  uint32_t* order = csr->peel_order.data();
  uint32_t* pos = csr->peel_pos.data();
  uint32_t* bin = csr->peel_bin.data();
  // Ranks are sorted by degree, so rank r starts at position r and
  // bin[d] is the first rank of degree >= d.
  uint32_t d = 0;
  bin[0] = 0;
  for (uint32_t r = 0; r < n; ++r) {
    core[r] = deg[r];
    order[r] = r;
    pos[r] = r;
    while (d < deg[r]) bin[++d] = r;
  }
  // Repeatedly remove a vertex of minimum remaining degree, moving each
  // higher-degree neighbour to the front of its bucket and decrementing
  // it. A removed vertex's remaining degree is its core number, and the
  // removal order visits core numbers in ascending order.
  const uint32_t* off = csr->offsets.data();
  const VertexRank* adj = csr->adj.data();
  uint32_t max_core = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t v = order[i];
    const uint32_t cv = core[v];
    max_core = std::max(max_core, cv);
    for (uint32_t p = off[v]; p < off[v + 1]; ++p) {
      const uint32_t u = adj[p];
      const uint32_t cu = core[u];
      if (cu <= cv) continue;
      const uint32_t pu = pos[u];
      const uint32_t pw = bin[cu];
      const uint32_t w = order[pw];
      order[pu] = w;
      order[pw] = u;
      pos[w] = pu;
      pos[u] = pw;
      ++bin[cu];
      core[u] = cu - 1;
    }
  }
  return max_core;
}

}  // namespace mvg
