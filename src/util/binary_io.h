#ifndef MVG_UTIL_BINARY_IO_H_
#define MVG_UTIL_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mvg {

/// Thrown by BinaryReader (and the model-file layer built on top of it)
/// whenever serialized data is malformed: truncated buffers, bad magic,
/// unsupported versions, checksum mismatches, out-of-range enum values.
/// Corrupt model files must fail loudly, never produce a half-loaded model.
class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// True on little-endian hosts, where the endian-stable serialized layout
/// of the flat node blobs coincides with the in-memory struct layout and
/// can therefore be viewed zero-copy instead of decoded field by field.
bool HostIsLittleEndian();

/// Appends primitives to an in-memory buffer in an endian-stable layout:
/// every integer is written little-endian byte by byte, doubles as their
/// IEEE-754 bit pattern via uint64. The buffer is the unit the model-file
/// section framing wraps with a length and a CRC (xgboost-style SaveModel
/// composition: every component writes itself into the stream it is given).
class BinaryWriter {
 public:
  void WriteBytes(const void* data, size_t size);
  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteDouble(double v);
  /// size_t is serialized as u64 so 32- and 64-bit hosts agree.
  void WriteSize(size_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteString(const std::string& s);

  void WriteDoubleVec(const std::vector<double>& v);
  void WriteIntVec(const std::vector<int>& v);
  void WriteSizeVec(const std::vector<size_t>& v);
  /// Row-major vector-of-rows (the ml layer's Matrix).
  void WriteDoubleMat(const std::vector<std::vector<double>>& m);

  /// Zero-pads the buffer to a multiple of `alignment` bytes (relative to
  /// the buffer start). The model-file layer places section payloads at
  /// 64-byte-aligned file offsets, so in-payload alignment carries over to
  /// absolute alignment of the mmap'd bytes.
  void AlignTo(size_t alignment);

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

/// Reads the layout produced by BinaryWriter. Non-owning: the buffer must
/// outlive the reader. Every read is bounds-checked and throws
/// SerializationError on underflow; vector reads additionally validate the
/// announced length against the bytes actually remaining, so a corrupt
/// length field cannot trigger a huge allocation.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit BinaryReader(const std::string& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  /// Bulk copy of `n` raw bytes into `dst` (bounds-checked once).
  void ReadBytes(void* dst, size_t n);
  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }
  /// A bool byte holds 0 or 1; any other value is corruption and throws
  /// SerializationError naming `what`.
  bool ReadBool(const char* what);
  double ReadDouble();
  size_t ReadSize();
  std::string ReadString();

  std::vector<double> ReadDoubleVec();
  std::vector<int> ReadIntVec();
  std::vector<size_t> ReadSizeVec();
  std::vector<std::vector<double>> ReadDoubleMat();

  /// Bounds-checked view of the next `n` raw bytes; advances the cursor
  /// without copying. The pointer aliases the reader's buffer and shares
  /// its lifetime — callers must copy unless zero_copy() promises the
  /// buffer outlives the loaded object (the mmap path).
  const uint8_t* ViewBytes(size_t n);

  /// Skips the zero padding a writer's AlignTo(alignment) emitted; throws
  /// if the padding would run past the end of the buffer.
  void AlignTo(size_t alignment);

  /// When true, the underlying buffer is guaranteed (by the caller, e.g.
  /// a model file mmap held alive by the serving session) to outlive the
  /// loaded objects, so loaders may keep ViewBytes pointers instead of
  /// copying flat payloads.
  bool zero_copy() const { return zero_copy_; }
  void set_zero_copy(bool v) { zero_copy_ = v; }

  /// Width of the rows the loaded model will be evaluated on (a model
  /// file's pipeline feature width). Tree loaders reject a split on a
  /// feature at or past it, so a crafted file cannot make prediction
  /// read past the row. Unbounded unless the caller knows the width.
  size_t feature_bound() const { return feature_bound_; }
  void set_feature_bound(size_t v) { feature_bound_ = v; }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  /// Ensures `n` more bytes exist; throws SerializationError otherwise.
  void Need(size_t n) const;
  /// Validates a length prefix for elements of `elem_size` bytes each.
  size_t ReadLength(size_t elem_size);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool zero_copy_ = false;
  size_t feature_bound_ = static_cast<size_t>(-1);
};

/// Reads a retired one-byte flag (the tree families' split-mode byte, the
/// pipeline's exact-splits bool) and ignores it. Files from before the
/// retirement may hold 0 or 1, so both load; ReadBool rejects the rest.
void SkipRetiredFlag(BinaryReader* r, const char* what);

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range — the
/// per-section checksum of the model file format.
uint32_t Crc32(const void* data, size_t size);
inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

}  // namespace mvg

#endif  // MVG_UTIL_BINARY_IO_H_
