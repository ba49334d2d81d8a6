#include "util/binary_io.h"

#include <cstring>
#include <string>

namespace mvg {

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  uint8_t first = 0;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void BinaryWriter::AlignTo(size_t alignment) {
  if (alignment == 0) return;
  const size_t rem = buf_.size() % alignment;
  if (rem != 0) buf_.append(alignment - rem, '\0');
}

void BinaryWriter::WriteU8(uint8_t v) {
  buf_.push_back(static_cast<char>(v));
}

void BinaryWriter::WriteU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void BinaryWriter::WriteU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit IEEE-754");
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteSize(s.size());
  WriteBytes(s.data(), s.size());
}

void BinaryWriter::WriteDoubleVec(const std::vector<double>& v) {
  WriteSize(v.size());
  for (double x : v) WriteDouble(x);
}

void BinaryWriter::WriteIntVec(const std::vector<int>& v) {
  WriteSize(v.size());
  for (int x : v) WriteI32(static_cast<int32_t>(x));
}

void BinaryWriter::WriteSizeVec(const std::vector<size_t>& v) {
  WriteSize(v.size());
  for (size_t x : v) WriteSize(x);
}

void BinaryWriter::WriteDoubleMat(const std::vector<std::vector<double>>& m) {
  WriteSize(m.size());
  for (const auto& row : m) WriteDoubleVec(row);
}

void BinaryReader::Need(size_t n) const {
  if (n > remaining()) {
    throw SerializationError("BinaryReader: unexpected end of data (need " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(remaining()) + ")");
  }
}

size_t BinaryReader::ReadLength(size_t elem_size) {
  const uint64_t len = ReadU64();
  if (elem_size > 0 && len > remaining() / elem_size) {
    throw SerializationError(
        "BinaryReader: length prefix " + std::to_string(len) +
        " exceeds remaining data (" + std::to_string(remaining()) + " bytes)");
  }
  return static_cast<size_t>(len);
}

void BinaryReader::ReadBytes(void* dst, size_t n) {
  Need(n);
  std::memcpy(dst, data_ + pos_, n);
  pos_ += n;
}

const uint8_t* BinaryReader::ViewBytes(size_t n) {
  Need(n);
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void BinaryReader::AlignTo(size_t alignment) {
  if (alignment == 0) return;
  const size_t rem = pos_ % alignment;
  if (rem != 0) {
    Need(alignment - rem);
    pos_ += alignment - rem;
  }
}

uint8_t BinaryReader::ReadU8() {
  Need(1);
  return data_[pos_++];
}

uint32_t BinaryReader::ReadU32() {
  Need(4);
  uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

uint64_t BinaryReader::ReadU64() {
  Need(8);
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<uint64_t>(data_[pos_++]) << shift;
  }
  return v;
}

double BinaryReader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

size_t BinaryReader::ReadSize() {
  const uint64_t v = ReadU64();
  if (v > static_cast<uint64_t>(SIZE_MAX)) {
    throw SerializationError("BinaryReader: size value overflows size_t");
  }
  return static_cast<size_t>(v);
}

std::string BinaryReader::ReadString() {
  const size_t len = ReadLength(1);
  std::string s(len, '\0');
  if (len > 0) ReadBytes(&s[0], len);
  return s;
}

std::vector<double> BinaryReader::ReadDoubleVec() {
  const size_t len = ReadLength(8);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = ReadDouble();
  return v;
}

std::vector<int> BinaryReader::ReadIntVec() {
  const size_t len = ReadLength(4);
  std::vector<int> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = static_cast<int>(ReadI32());
  return v;
}

std::vector<size_t> BinaryReader::ReadSizeVec() {
  const size_t len = ReadLength(8);
  std::vector<size_t> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = ReadSize();
  return v;
}

std::vector<std::vector<double>> BinaryReader::ReadDoubleMat() {
  const size_t rows = ReadLength(8);
  std::vector<std::vector<double>> m(rows);
  for (size_t i = 0; i < rows; ++i) m[i] = ReadDoubleVec();
  return m;
}

void SkipRetiredFlag(BinaryReader* r, const char* what) {
  const uint8_t v = r->ReadU8();
  if (v > 1) {
    throw SerializationError(std::string(what) + ": out-of-range value " +
                             std::to_string(v) + " in a retired flag byte");
  }
}

uint32_t Crc32(const void* data, size_t size) {
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mvg
