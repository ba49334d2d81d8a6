#include "ml/quantile_sketch.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/parallel.h"

namespace mvg {

QuantileSketch::QuantileSketch(size_t block, uint64_t start_index)
    : block_(block),
      start_(start_index),
      end_(start_index),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (block_ < 2) throw std::invalid_argument("QuantileSketch: block < 2");
  const uint64_t b = static_cast<uint64_t>(block_);
  first_boundary_ = (start_ + b - 1) / b * b;
}

void QuantileSketch::Add(double v) {
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  if (end_ < first_boundary_) {
    head_raw_.push_back(v);
    ++end_;
  } else {
    tail_raw_.push_back(v);
    ++end_;
    if (end_ % static_cast<uint64_t>(block_) == 0) SealTailBlock();
  }
}

void QuantileSketch::AddBulk(const double* v, size_t n) {
  size_t i = 0;
  while (i < n && end_ < first_boundary_) Add(v[i++]);
  while (i < n) {
    // Fill the current (block-aligned) tail up to its boundary in one
    // contiguous chunk. Independent lane accumulators let the min/max
    // reduction vectorize; min/max are order-free, so folding them at
    // the end is exact.
    const size_t in_block = static_cast<size_t>(
        end_ % static_cast<uint64_t>(block_));
    const size_t take = std::min(block_ - in_block, n - i);
    tail_raw_.insert(tail_raw_.end(), v + i, v + i + take);
    double lo0 = min_, lo1 = min_, hi0 = max_, hi1 = max_;
    size_t k = i;
    for (; k + 1 < i + take; k += 2) {
      lo0 = std::min(lo0, v[k]);
      hi0 = std::max(hi0, v[k]);
      lo1 = std::min(lo1, v[k + 1]);
      hi1 = std::max(hi1, v[k + 1]);
    }
    if (k < i + take) {
      lo0 = std::min(lo0, v[k]);
      hi0 = std::max(hi0, v[k]);
    }
    min_ = std::min(lo0, lo1);
    max_ = std::max(hi0, hi1);
    end_ += take;
    i += take;
    if (end_ % static_cast<uint64_t>(block_) == 0) SealTailBlock();
  }
}

void QuantileSketch::AddZeros(uint64_t k) {
  for (uint64_t i = 0; i < k; ++i) Add(0.0);
}

void QuantileSketch::SealTailBlock() {
  // tail_raw_ covers exactly the block ending at position end_ - 1.
  Segment seg;
  seg.level = 0;
  seg.id = end_ / static_cast<uint64_t>(block_) - 1;
  seg.values = std::move(tail_raw_);
  std::sort(seg.values.begin(), seg.values.end());
  // The segment is immutable from here and lives for the sketch's whole
  // life; the moved-in buffer carries push-back growth overshoot (~1.5x),
  // which across a wide extractor's many sketches is real memory.
  seg.values.shrink_to_fit();
  tail_raw_.clear();
  segments_.push_back(std::move(seg));
  CoalesceBack();
}

void QuantileSketch::CoalesceBack() {
  // Stream order keeps segments_ sorted by covered position range, so
  // only the last two entries can ever be siblings (level L, ids 2j and
  // 2j+1); a merge can enable the next carry, binary-counter style.
  while (segments_.size() >= 2) {
    Segment& a = segments_[segments_.size() - 2];
    Segment& b = segments_.back();
    if (a.level != b.level || (a.id & 1) != 0 || b.id != a.id + 1) break;
    const uint64_t parent = a.id >> 1;
    // Deterministic compaction: merge the 2*block sorted values and keep
    // every other one starting at offset parent & 1 — a fixed function of
    // the absolute id, never of call chunking. The merge buffer is local:
    // coalesces happen once per block, and a retained per-sketch scratch
    // would cost 2*block doubles on every feature of a wide extractor.
    std::vector<double> merged(2 * block_);
    std::merge(a.values.begin(), a.values.end(), b.values.begin(),
               b.values.end(), merged.begin());
    const size_t offset = static_cast<size_t>(parent & 1);
    for (size_t i = 0; i < block_; ++i) {
      a.values[i] = merged[2 * i + offset];
    }
    a.level += 1;
    a.id = parent;
    segments_.pop_back();
  }
}

void QuantileSketch::Merge(const QuantileSketch& right) {
  if (right.block_ != block_) {
    throw std::invalid_argument("QuantileSketch::Merge: block mismatch");
  }
  if (right.start_ != end_) {
    throw std::invalid_argument(
        "QuantileSketch::Merge: streams not contiguous");
  }
  const double rmin = right.min_, rmax = right.max_;
  // Right's raw head items continue this sketch's stream verbatim; when
  // they complete a block, Add seals it exactly as single-stream feeding
  // would have.
  for (double v : right.head_raw_) Add(v);
  // Right's segments cover block-aligned ranges starting exactly at this
  // point (right.head_raw_ ended at right's first boundary).
  for (const Segment& seg : right.segments_) {
    segments_.push_back(seg);
    CoalesceBack();
    end_ += static_cast<uint64_t>(block_) << seg.level;
  }
  for (double v : right.tail_raw_) {
    tail_raw_.push_back(v);
    ++end_;
  }
  min_ = std::min(min_, rmin);
  max_ = std::max(max_, rmax);
}

std::vector<std::pair<double, uint64_t>> QuantileSketch::WeightedValues()
    const {
  // Only the raw head and tail (weight 1) need a sort. Each segment is
  // sorted already and is merged into the sorted prefix, so a one-block
  // sketch (FeatureTable::Build) is a plain copy. Equal values may keep
  // any order: ComputeCuts collapses them before their order matters.
  using Item = std::pair<double, uint64_t>;
  const auto by_value = [](const Item& a, const Item& b) {
    return a.first < b.first;
  };
  std::vector<Item> out;
  out.reserve(head_raw_.size() + tail_raw_.size() +
              segments_.size() * block_);
  for (double v : head_raw_) out.emplace_back(v, 1);
  for (double v : tail_raw_) out.emplace_back(v, 1);
  std::sort(out.begin(), out.end(), by_value);
  for (const Segment& seg : segments_) {
    const auto mid = static_cast<std::ptrdiff_t>(out.size());
    const uint64_t w = uint64_t{1} << seg.level;
    for (double v : seg.values) out.emplace_back(v, w);
    std::inplace_merge(out.begin(), out.begin() + mid, out.end(), by_value);
  }
  return out;
}

std::vector<double> QuantileSketch::ComputeCuts(size_t max_bins) const {
  std::vector<double> cuts;
  // Collapse duplicates in place: item i becomes (distinct value i,
  // cumulative weight of distinct values 0..i).
  auto cum = WeightedValues();
  if (cum.empty() || max_bins < 2) return cuts;
  size_t distinct = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < cum.size(); ++i) {
    const auto [v, w] = cum[i];
    total += w;
    if (distinct == 0 || cum[distinct - 1].first != v) {
      cum[distinct++].first = v;
    }
    cum[distinct - 1].second = total;
  }
  cum.resize(distinct);
  if (distinct <= max_bins) {
    // Few distinct values: midpoints between consecutive distinct values
    // (when count() <= block the sketch is the raw column, so these are
    // the exact cuts).
    for (size_t i = 0; i + 1 < distinct; ++i) {
      cuts.push_back(0.5 * (cum[i].first + cum[i + 1].first));
    }
    return cuts;
  }
  // index_at(r) is the index of the distinct value whose cumulative
  // range contains rank r.
  auto index_at = [&](uint64_t rank) {
    return static_cast<size_t>(
        std::upper_bound(cum.begin(), cum.end(), rank,
                         [](uint64_t r, const std::pair<double, uint64_t>& e) {
                           return r < e.second;
                         }) -
        cum.begin());
  };
  // While every segment is still level 0 the sketch holds the raw stream
  // (weights above 1 are true duplicate runs), and a boundary inside a
  // duplicate run yields no cut.
  // Once compaction has run, a weight-w survivor stands for a *range* of
  // the original distribution, so a boundary inside its weight must still
  // produce a cut — we place it between the survivor and its successor
  // (rank error bounded by one survivor weight).
  bool compacted = false;
  for (const Segment& seg : segments_) {
    if (seg.level > 0) {
      compacted = true;
      break;
    }
  }
  for (size_t b = 1; b < max_bins; ++b) {
    const uint64_t pos =
        static_cast<uint64_t>(b) * total / static_cast<uint64_t>(max_bins);
    if (pos == 0) continue;
    const size_t hi = index_at(pos);
    const size_t lo = index_at(pos - 1);
    double cut;
    if (hi != lo) {
      // Boundary between two adjacent distinct values:
      // 0.5 * (sorted[pos - 1] + sorted[pos]) of the raw column.
      cut = 0.5 * (cum[lo].first + cum[hi].first);
    } else if (!compacted) {
      continue;  // a duplicate run spans the boundary
    } else {
      if (hi + 1 >= distinct) continue;  // cannot cut above the max
      cut = 0.5 * (cum[hi].first + cum[hi + 1].first);
    }
    if (!cuts.empty() && cut <= cuts.back()) continue;
    cuts.push_back(cut);
  }
  return cuts;
}

CutSketcher::CutSketcher(size_t max_bins, size_t block)
    : max_bins_(max_bins), block_(block) {}

void CutSketcher::GrowTo(size_t width) {
  while (sketches_.size() < width) {
    sketches_.emplace_back(block_, 0);
    // The new feature existed implicitly as zero-padding for every row
    // already seen.
    sketches_.back().AddZeros(rows_seen_);
  }
}

void CutSketcher::AddRow(const double* row, size_t len) {
  GrowTo(len);
  for (size_t f = 0; f < sketches_.size(); ++f) {
    sketches_[f].Add(f < len ? row[f] : 0.0);
  }
  ++rows_seen_;
}

void CutSketcher::AddRows(const std::vector<std::vector<double>>& page,
                          size_t num_threads) {
  size_t width = 0;
  for (const auto& row : page) width = std::max(width, row.size());
  GrowTo(width);
  const uint64_t base = rows_seen_;
  // Feature-parallel: each sketch consumes its own column of the page in
  // row order, so the per-feature stream — and therefore the sketch state
  // — is independent of the thread count. The column is gathered into a
  // contiguous scratch first so the sketch takes the AddBulk fast path.
  ParallelFor(sketches_.size(), num_threads, [&](size_t f) {
    std::vector<double> col(page.size());
    for (size_t r = 0; r < page.size(); ++r) {
      col[r] = f < page[r].size() ? page[r][f] : 0.0;
    }
    sketches_[f].AddBulk(col.data(), col.size());
  });
  rows_seen_ = base + page.size();
}

CutSketcher::FeatureCuts CutSketcher::Finish() const {
  FeatureCuts out;
  out.cut_offset.push_back(0);
  for (const QuantileSketch& sk : sketches_) {
    const std::vector<double> cuts = sk.ComputeCuts(max_bins_);
    out.cuts.insert(out.cuts.end(), cuts.begin(), cuts.end());
    out.cut_offset.push_back(out.cuts.size());
    out.mins.push_back(sk.count() > 0 ? sk.min() : 0.0);
    out.maxs.push_back(sk.count() > 0 ? sk.max() : 0.0);
  }
  return out;
}

}  // namespace mvg
