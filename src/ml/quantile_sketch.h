#ifndef MVG_ML_QUANTILE_SKETCH_H_
#define MVG_ML_QUANTILE_SKETCH_H_

// Deterministic mergeable quantile sketch for one-pass streaming bin cuts.
//
// The sketch is a binary-counter stack of sorted segments keyed on
// ABSOLUTE stream positions: every full block of `block` consecutive
// stream items becomes a sorted level-0 segment whose id is the absolute
// block index; whenever two sibling segments (level L, ids 2j and 2j+1)
// are both present they coalesce into a level-L+1 segment of `block`
// items — merge the 2*block sorted values and keep every other one
// starting at offset j & 1 — each carrying weight 2^(L+1). Items before
// the first block boundary (a sketch may start mid-stream) and after the
// last one are kept raw with weight 1.
//
// Because the compaction offset is a pure function of the absolute block
// id (the "fixed seed"), the whole sketch state is a pure function of the
// index-ordered stream — NOT of how the stream was chunked into Add and
// Merge calls. That gives the two properties the streaming feature
// pipeline is built on, by construction rather than by tolerance:
//
//  * chunk invariance — feeding rows one page at a time (FitPaged) yields
//    bit-identical cuts to feeding them all at once (in-RAM fit);
//  * associative merging — workers can sketch disjoint index ranges and
//    merge left-to-right in any grouping; the result is always the
//    single-stream sketch, so allreduced cuts agree on every rank.
//
// Accuracy is the classic deterministic-compaction bound: a value's rank
// error is at most (#coalesces it survived) = O(log(n/block)) * block/2
// in the worst case, i.e. with block=1024 the relative rank error stays
// well under 1% for any realistically sized training corpus; streams with
// n <= block are represented exactly (the sketch degenerates to the raw
// sorted column), which is how FeatureTable::Build gets exact cuts from
// the same ComputeCuts: it sketches each column as one block.
//
// Exact min/max/count are tracked on the side so downstream consumers
// (MinMaxScaler bounds, bin-count decisions) never pay sketch error.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvg {

/// Default block (level-0 segment) size.
inline constexpr size_t kSketchBlock = 1024;

class QuantileSketch {
 public:
  /// A sketch over the stream positions [start_index, ...). Streams fed to
  /// mergeable sketches must use a common block size.
  explicit QuantileSketch(size_t block = kSketchBlock,
                          uint64_t start_index = 0);

  /// Appends the next stream item (position end_index()).
  void Add(double v);

  /// Appends `n` consecutive stream items. State-identical to n Add
  /// calls, but fills blocks in contiguous chunks (bulk copy + local
  /// min/max reduction) instead of paying the per-item branch/modulo —
  /// the fast path CutSketcher's column feed uses.
  void AddBulk(const double* v, size_t n);

  /// Appends `k` zeros — the backfill used when a growing feature width
  /// retroactively zero-pads earlier rows.
  void AddZeros(uint64_t k);

  /// Appends a whole sketch of the continuation stream: requires
  /// right.start_index() == this->end_index() (and equal block sizes).
  /// Associative: any left-to-right grouping of range sketches produces
  /// the identical sketch.
  void Merge(const QuantileSketch& right);

  uint64_t start_index() const { return start_; }
  uint64_t end_index() const { return end_; }
  /// Number of items fed (end - start).
  uint64_t count() const { return end_ - start_; }
  /// Exact stream min/max (+inf/-inf when empty).
  double min() const { return min_; }
  double max() const { return max_; }
  size_t block() const { return block_; }

  /// The weighted value multiset: (value, weight) sorted by value, total
  /// weight == count(). ComputeCuts evaluates the quantile rule on it.
  std::vector<std::pair<double, uint64_t>> WeightedValues() const;

  /// Bin cuts over the weighted multiset, the one cut algorithm of both
  /// the streaming and the in-RAM (FeatureTable::Build) binning: when the
  /// sketch holds <= max_bins distinct values the cuts are midpoints
  /// between consecutive distinct values; otherwise cut b splits at
  /// weighted rank b*count/max_bins, skipping empty/duplicate splits. At
  /// most max_bins - 1 cuts.
  std::vector<double> ComputeCuts(size_t max_bins) const;

 private:
  struct Segment {
    uint32_t level;
    uint64_t id;  ///< absolute id: covers positions [id*B*2^L, (id+1)*B*2^L).
    std::vector<double> values;  ///< sorted, exactly `block` items.
  };

  /// Moves the (full, block-aligned) tail buffer into a level-0 segment
  /// and runs the coalesce carry chain.
  void SealTailBlock();
  void CoalesceBack();

  size_t block_;
  uint64_t start_;
  uint64_t end_;
  double min_;
  double max_;
  /// First block-aligned position >= start_: items before it can never be
  /// part of a full block of THIS sketch and stay raw until a Merge on
  /// the left completes their block.
  uint64_t first_boundary_;
  std::vector<double> head_raw_;  ///< positions [start_, first_boundary_).
  std::vector<Segment> segments_;
  std::vector<double> tail_raw_;  ///< positions [last boundary, end_).
};

/// Per-feature streaming cut computation over extracted feature rows.
/// Rows are fed in global row order; a row wider than anything seen so
/// far grows the feature set and zero-backfills the new features for all
/// earlier rows, and a row shorter than the current width feeds zeros for
/// its missing features — exactly the ExtractAll zero-padding semantics,
/// so the sketched stream per feature equals that feature's padded
/// matrix column.
class CutSketcher {
 public:
  explicit CutSketcher(size_t max_bins, size_t block = kSketchBlock);

  /// Feeds one row (the next global row).
  void AddRow(const double* row, size_t len);

  /// Feeds a page of rows, fanning the per-feature sketch updates across
  /// threads. Each feature's sketch sees the identical value sequence
  /// regardless of num_threads or how rows were split into pages.
  void AddRows(const std::vector<std::vector<double>>& page,
               size_t num_threads);

  size_t num_features() const { return sketches_.size(); }
  uint64_t rows_seen() const { return rows_seen_; }
  const QuantileSketch& sketch(size_t f) const { return sketches_[f]; }

  /// Finished per-feature cuts, concatenated (cut_offset has
  /// num_features+1 entries), plus the exact per-feature min/max bounds
  /// for MinMaxScaler::FitFromBounds.
  struct FeatureCuts {
    std::vector<double> cuts;
    std::vector<size_t> cut_offset;
    std::vector<double> mins;
    std::vector<double> maxs;
    size_t num_features() const { return cut_offset.size() - 1; }
  };
  FeatureCuts Finish() const;

 private:
  void GrowTo(size_t width);

  size_t max_bins_;
  size_t block_;
  uint64_t rows_seen_ = 0;
  std::vector<QuantileSketch> sketches_;
};

}  // namespace mvg

#endif  // MVG_ML_QUANTILE_SKETCH_H_
