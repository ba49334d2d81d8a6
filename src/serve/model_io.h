#ifndef MVG_SERVE_MODEL_IO_H_
#define MVG_SERVE_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/mvg_classifier.h"

namespace mvg {

/// The `.mvg` model file format (persistence half of the serving
/// subsystem). All integers little-endian.
///
/// v3 (current) is a flat, offset-indexed, alignment-padded layout built
/// for mmap serving — the whole file maps read-only and the loader
/// constructs a model whose flat node arrays are pointers into the
/// mapping (zero-copy; see LoadModelView / ServingSession::FromFileMapped):
///
///   offset  size  field
///   0       8     magic "MVGMODEL"
///   8       4     format version (u32; 3)
///   12      4     section count (u32)
///   16      8     total file size (u64) — rejects truncation up front
///   24      4     crc32 of the section table (u32)
///   28      36    zero padding (header is exactly 64 bytes)
///   64      32*n  section table, one 32-byte entry per section:
///                   u32 tag | u32 flags (0) | u64 offset | u64 size |
///                   u32 crc32(payload) | u32 zero pad
///   ...           payloads, each starting at a 64-byte-aligned file
///                 offset, zero-padded in between
///
/// A fitted MvgClassifier serializes as three sections:
///
///   tag 1  pipeline   MvgClassifier::Config + extractor MvgConfig +
///                     fitted metadata (feature width, train length) +
///                     two reserved fields written as zeros (the retired
///                     exact-splits flag and FE/Clf wall times)
///   tag 2  scaler     the fitted MinMaxScaler
///   tag 3  model      type-tagged classifier body (SaveClassifierBinary)
///
/// Versioning policy: any layout change bumps kModelFormatVersion. This
/// build writes and reads v3 only. Any other version is rejected loudly
/// — section bodies are not self-describing, so an unknown version must
/// never be misparsed. That includes v2, the sequential layout written
/// before v3: load such a file with an older build that still reads it
/// and re-save it to migrate (docs/FORMATS.md §1.4). Unknown *section*
/// tags are ignored on read, so a newer writer may append sections
/// without breaking old readers within one version. Corruption (bad
/// magic, truncation, CRC mismatch, misaligned/overlapping/out-of-bounds
/// sections, out-of-range enums/indices) always throws
/// SerializationError — a model never half-loads.
///
/// History: v2 = histogram training engine (tree bodies gained
/// split-mode/max_bins, pipeline gained exact-splits); v3 = flat
/// tree-node storage + mmap framing above.
inline constexpr char kModelMagic[8] = {'M', 'V', 'G', 'M', 'O', 'D', 'E', 'L'};
inline constexpr uint32_t kModelFormatVersion = 3;

/// v3 geometry (part of the on-disk format).
inline constexpr size_t kModelHeaderBytes = 64;
inline constexpr size_t kModelTableEntryBytes = 32;
inline constexpr size_t kModelPayloadAlign = 64;

/// Section tags (part of the on-disk format; append, never renumber).
enum ModelSection : uint32_t {
  kSectionPipeline = 1,
  kSectionScaler = 2,
  kSectionModel = 3,
};

/// Saves a fitted MvgClassifier in the current (v3) format. The bytes are
/// a pure function of the fitted state (no timestamps or wall times), so
/// two fits of the same data and config compare equal with `cmp`. Throws
/// std::runtime_error when the model is unfitted; stream failures —
/// including ones only surfaced by the final flush — throw
/// runtime_error (with the path in the message for the path overload),
/// so a short write can never silently produce a truncated file.
void SaveModel(const MvgClassifier& model, std::ostream& os);
void SaveModel(const MvgClassifier& model, const std::string& path);

/// Loads a model saved by SaveModel (v3). Predictions are bit-identical
/// to the in-memory model that was saved.
/// This path copies every payload out of the stream (self-contained
/// model, no lifetime ties). Throws SerializationError on corrupt input,
/// std::runtime_error when `path` cannot be opened.
MvgClassifier LoadModel(std::istream& is);
MvgClassifier LoadModel(const std::string& path);

/// How much of a v3 buffer LoadModelView checks before trusting it.
enum class ModelVerify {
  /// Header, section table CRC, and every structural invariant
  /// (alignment, bounds, overlap, duplicate tags) — O(table), so a
  /// mapped load stays O(1) in the file size and untouched payload
  /// pages are never faulted in. Payload CRCs are NOT swept; a bit
  /// flip inside a section surfaces as a decode error or wrong
  /// predictions, not a checksum mismatch.
  kStructure,
  /// kStructure plus every per-section payload CRC — O(file), faults
  /// in the whole mapping. What the stream loader (LoadModel) always
  /// does.
  kFull,
};

/// Zero-copy load over a caller-owned buffer holding a whole v3 file
/// (an mmap'd file, typically). The framing is structurally validated
/// up front (see ModelVerify; default defers the O(file) payload CRC
/// sweep so construction is O(1) and pages fault in lazily on first
/// use); flat tree-node sections become views into `data` instead of
/// copies, so N processes mapping the same file share one physical copy
/// of the model. The buffer must outlive the returned model — use
/// ServingSession::FromFileMapped for the version that manages the
/// mapping's lifetime. Like LoadModel it rejects every version but v3;
/// on big-endian hosts the load still works but decodes into owned
/// storage.
MvgClassifier LoadModelView(const void* data, size_t size,
                            ModelVerify verify = ModelVerify::kStructure);

/// Reads just the header of a `.mvg` file and returns its format
/// version. Throws SerializationError on bad magic / truncation,
/// std::runtime_error when the file cannot be opened.
uint32_t PeekModelVersion(std::istream& is);
uint32_t PeekModelVersion(const std::string& path);

}  // namespace mvg

#endif  // MVG_SERVE_MODEL_IO_H_
