#include "serve/model_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/binary_io.h"

namespace mvg {

namespace {

/// Hard cap on a single section payload (64 MiB). Real models are a few
/// KiB to a few MiB; anything larger is a corrupt length field.
constexpr uint64_t kMaxSectionBytes = 64ull << 20;

/// Sanity cap on the section count — a corrupt count must not drive a
/// huge table read.
constexpr uint32_t kMaxSections = 64;

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

uint8_t CheckedEnum(BinaryReader* r, uint8_t max_value, const char* what) {
  const uint8_t v = r->ReadU8();
  if (v > max_value) {
    throw SerializationError(std::string("model file: out-of-range ") + what +
                             " value " + std::to_string(v));
  }
  return v;
}

void SaveMvgConfig(const MvgConfig& c, BinaryWriter* w) {
  w->WriteU8(static_cast<uint8_t>(c.scale_mode));
  w->WriteU8(static_cast<uint8_t>(c.graph_mode));
  w->WriteU8(static_cast<uint8_t>(c.feature_mode));
  w->WriteSize(c.tau);
  w->WriteBool(c.detrend);
  w->WriteU8(static_cast<uint8_t>(c.vg_algorithm));
}

MvgConfig LoadMvgConfig(BinaryReader* r) {
  MvgConfig c;
  c.scale_mode = static_cast<ScaleMode>(CheckedEnum(r, 2, "ScaleMode"));
  c.graph_mode = static_cast<GraphMode>(CheckedEnum(r, 2, "GraphMode"));
  c.feature_mode = static_cast<FeatureMode>(CheckedEnum(r, 2, "FeatureMode"));
  c.tau = r->ReadSize();
  c.detrend = r->ReadBool("model file: detrend");
  c.vg_algorithm = static_cast<VgAlgorithm>(CheckedEnum(r, 1, "VgAlgorithm"));
  return c;
}

/// A validated window into a model file's bytes.
struct SectionView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

using SectionMap = std::map<uint32_t, SectionView>;

// ---------------------------------------------------------------------------
// v3 framing: 64-byte header, offset-indexed 32-byte table entries,
// 64-byte-aligned payloads. Written so the whole file can be mmap'd and
// validated in place.
// ---------------------------------------------------------------------------

void WriteFramedV3(std::ostream& os,
                   const std::vector<std::pair<uint32_t, const std::string*>>&
                       sections) {
  const size_t n = sections.size();
  const size_t table_end = kModelHeaderBytes + n * kModelTableEntryBytes;

  // Lay out payload offsets first; the header needs the total file size.
  std::vector<uint64_t> offsets(n);
  uint64_t pos = AlignUp(table_end, kModelPayloadAlign);
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = pos;
    pos += sections[i].second->size();
    if (i + 1 < n) pos = AlignUp(pos, kModelPayloadAlign);
  }
  const uint64_t file_size = pos;

  BinaryWriter table;
  for (size_t i = 0; i < n; ++i) {
    table.WriteU32(sections[i].first);
    table.WriteU32(0);  // flags (reserved)
    table.WriteU64(offsets[i]);
    table.WriteU64(sections[i].second->size());
    table.WriteU32(Crc32(*sections[i].second));
    table.WriteU32(0);  // pad
  }

  BinaryWriter header;
  header.WriteBytes(kModelMagic, sizeof(kModelMagic));
  header.WriteU32(kModelFormatVersion);
  header.WriteU32(static_cast<uint32_t>(n));
  header.WriteU64(file_size);
  header.WriteU32(Crc32(table.data()));
  header.AlignTo(kModelHeaderBytes);

  os.write(header.data().data(), static_cast<std::streamsize>(header.size()));
  os.write(table.data().data(), static_cast<std::streamsize>(table.size()));
  uint64_t written = table_end;
  for (size_t i = 0; i < n; ++i) {
    static const char kZeros[kModelPayloadAlign] = {};
    os.write(kZeros, static_cast<std::streamsize>(offsets[i] - written));
    os.write(sections[i].second->data(),
             static_cast<std::streamsize>(sections[i].second->size()));
    written = offsets[i] + sections[i].second->size();
  }
}

/// Parses and validates the v3 framing over `buf` (header fields, table
/// CRC, per-section alignment/bounds/overlap — plus per-section payload
/// CRCs when `verify_payload_crc`; mapped loads defer that O(file) sweep
/// so they never fault in payload pages) and returns views into it.
/// Unknown tags are kept in the map but loaders simply never look them
/// up; duplicate tags are an error.
SectionMap ReadSectionTableV3(const uint8_t* buf, size_t size,
                              bool verify_payload_crc) {
  if (size < kModelHeaderBytes) {
    throw SerializationError("model file: truncated v3 header");
  }
  BinaryReader header(buf, kModelHeaderBytes);
  header.ViewBytes(sizeof(kModelMagic));  // magic checked by the caller.
  header.ReadU32();                       // version checked by the caller.
  const uint32_t section_count = header.ReadU32();
  const uint64_t file_size = header.ReadU64();
  const uint32_t table_crc = header.ReadU32();

  if (section_count > kMaxSections) {
    throw SerializationError("model file: implausible section count " +
                             std::to_string(section_count));
  }
  if (file_size != size) {
    throw SerializationError(
        "model file: size mismatch (header says " + std::to_string(file_size) +
        " bytes, got " + std::to_string(size) + "; truncated or trailing "
        "garbage)");
  }
  const size_t table_bytes = section_count * kModelTableEntryBytes;
  if (size - kModelHeaderBytes < table_bytes) {
    throw SerializationError("model file: truncated section table");
  }
  if (Crc32(buf + kModelHeaderBytes, table_bytes) != table_crc) {
    throw SerializationError("model file: section table checksum mismatch");
  }

  BinaryReader table(buf + kModelHeaderBytes, table_bytes);
  SectionMap sections;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // (offset, end)
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t tag = table.ReadU32();
    table.ReadU32();  // flags (reserved; ignored for forward compat).
    const uint64_t offset = table.ReadU64();
    const uint64_t payload_size = table.ReadU64();
    const uint32_t crc = table.ReadU32();
    table.ReadU32();  // pad
    if (payload_size > kMaxSectionBytes) {
      throw SerializationError("model file: section " + std::to_string(tag) +
                               " implausibly large");
    }
    if (offset % kModelPayloadAlign != 0) {
      throw SerializationError("model file: misaligned section " +
                               std::to_string(tag));
    }
    if (offset < kModelHeaderBytes + table_bytes || offset > size ||
        payload_size > size - offset) {
      throw SerializationError("model file: section " + std::to_string(tag) +
                               " out of bounds");
    }
    if (verify_payload_crc &&
        Crc32(buf + offset, static_cast<size_t>(payload_size)) != crc) {
      throw SerializationError("model file: checksum mismatch in section " +
                               std::to_string(tag));
    }
    if (!sections
             .emplace(tag, SectionView{buf + offset,
                                       static_cast<size_t>(payload_size)})
             .second) {
      throw SerializationError("model file: duplicate section " +
                               std::to_string(tag));
    }
    extents.emplace_back(offset, offset + payload_size);
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) {
      throw SerializationError("model file: overlapping sections");
    }
  }
  return sections;
}

// ---------------------------------------------------------------------------
// Shared entry points.
// ---------------------------------------------------------------------------

uint32_t CheckMagicReadVersion(const void* data, size_t size) {
  if (size < sizeof(kModelMagic) + 4) {
    throw SerializationError("model file: truncated header");
  }
  if (std::memcmp(data, kModelMagic, sizeof(kModelMagic)) != 0) {
    throw SerializationError("model file: bad magic (not an .mvg model)");
  }
  BinaryReader r(static_cast<const uint8_t*>(data) + sizeof(kModelMagic), 4);
  return r.ReadU32();
}

const SectionView& RequireSection(const SectionMap& sections, uint32_t tag,
                                  const char* what) {
  const auto it = sections.find(tag);
  if (it == sections.end()) {
    throw SerializationError(std::string("model file: missing ") + what +
                             " section");
  }
  return it->second;
}

/// The three mandatory sections, fully validated, still viewing the
/// source buffer.
struct OpenedModel {
  SectionView pipeline, scaler, model;
};

/// Checks that `data` holds the current format and validates its
/// framing. `verify_payload_crc=false` keeps the open O(table) — see
/// ModelVerify::kStructure.
OpenedModel OpenModelBuffer(const void* data, size_t size,
                            bool verify_payload_crc) {
  const uint32_t version = CheckMagicReadVersion(data, size);
  if (version != kModelFormatVersion) {
    throw SerializationError(
        "model file: unsupported format version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kModelFormatVersion) + ")");
  }
  const SectionMap sections = ReadSectionTableV3(
      static_cast<const uint8_t*>(data), size, verify_payload_crc);

  OpenedModel opened;
  opened.pipeline = RequireSection(sections, kSectionPipeline, "pipeline");
  opened.scaler = RequireSection(sections, kSectionScaler, "scaler");
  opened.model = RequireSection(sections, kSectionModel, "model");
  return opened;
}

}  // namespace

// Defined here rather than in core/mvg_classifier.cc so the whole on-disk
// format — framing plus every section body — lives in the serve layer;
// being member functions they still have access to the private fitted
// state they persist.
void MvgClassifier::BuildSections(std::string* pipeline, std::string* scaler,
                                  std::string* model) const {
  if (!model_) {
    throw std::runtime_error("MvgClassifier::SaveBinary: model not fitted");
  }

  BinaryWriter pipeline_w;
  SaveMvgConfig(config_.extractor, &pipeline_w);
  pipeline_w.WriteU8(static_cast<uint8_t>(config_.model));
  pipeline_w.WriteU8(static_cast<uint8_t>(config_.grid));
  // Retired training slots: oversample (always on), cv_folds and
  // stacking_top_k.
  pipeline_w.WriteBool(true);
  pipeline_w.WriteSize(kCvFolds);
  pipeline_w.WriteSize(kStackingTopK);
  pipeline_w.WriteU64(config_.seed);
  // num_threads is a runtime knob (results are thread-count invariant)
  // and deliberately not persisted.
  pipeline_w.WriteU8(0);  // reserved: the retired exact_splits flag.
  pipeline_w.WriteSize(feature_width_);
  pipeline_w.WriteSize(train_length_);
  // Reserved: the recorded FE/Clf wall times. Always zero, so a model
  // file is a pure function of (data, config) and two fits compare with
  // plain `cmp`.
  pipeline_w.WriteDouble(0.0);
  pipeline_w.WriteDouble(0.0);
  *pipeline = pipeline_w.data();

  BinaryWriter scaler_w;
  scaler_.SaveBinary(&scaler_w);
  *scaler = scaler_w.data();

  BinaryWriter model_w;
  SaveClassifierBinary(*model_, &model_w);
  *model = model_w.data();
}

void MvgClassifier::SaveBinary(std::ostream& os) const {
  std::string pipeline, scaler, model;
  BuildSections(&pipeline, &scaler, &model);
  WriteFramedV3(os, {{kSectionPipeline, &pipeline},
                     {kSectionScaler, &scaler},
                     {kSectionModel, &model}});
  if (!os) {
    throw std::runtime_error("MvgClassifier::SaveBinary: stream write failed");
  }
}

MvgClassifier MvgClassifier::FromSectionReaders(BinaryReader* pipeline,
                                                BinaryReader* scaler,
                                                BinaryReader* model) {
  Config config;
  config.extractor = LoadMvgConfig(pipeline);
  config.model = static_cast<MvgModel>(CheckedEnum(pipeline, 3, "MvgModel"));
  config.grid =
      static_cast<GridPreset>(CheckedEnum(pipeline, 2, "GridPreset"));
  SkipRetiredFlag(pipeline, "model file: oversample");
  pipeline->ReadSize();  // retired cv_folds
  pipeline->ReadSize();  // retired stacking_top_k
  config.seed = pipeline->ReadU64();
  SkipRetiredFlag(pipeline, "model file: exact_splits");

  MvgClassifier clf(config);
  clf.feature_width_ = pipeline->ReadSize();
  clf.train_length_ = pipeline->ReadSize();
  pipeline->ReadDouble();  // reserved wall times (nonzero in old files).
  pipeline->ReadDouble();

  clf.scaler_.LoadBinary(scaler);
  // Predict pads or truncates every row to feature_width_, so no split
  // may name a feature at or past it.
  model->set_feature_bound(clf.feature_width_);
  clf.model_ = LoadClassifierBinary(model);
  return clf;
}

namespace {

/// Builds section readers over an opened buffer and rebuilds the model
/// through the (private, member) section decoder.
MvgClassifier DecodeOpened(const OpenedModel& opened, bool zero_copy) {
  BinaryReader pipeline(opened.pipeline.data, opened.pipeline.size);
  BinaryReader scaler(opened.scaler.data, opened.scaler.size);
  BinaryReader model(opened.model.data, opened.model.size);
  for (BinaryReader* r : {&pipeline, &scaler, &model}) {
    r->set_zero_copy(zero_copy);
  }
  return MvgClassifier::FromSectionReaders(&pipeline, &scaler, &model);
}

}  // namespace

MvgClassifier MvgClassifier::LoadBinary(std::istream& is) {
  std::ostringstream raw;
  raw << is.rdbuf();
  const std::string buf = raw.str();
  return DecodeOpened(
      OpenModelBuffer(buf.data(), buf.size(), /*verify_payload_crc=*/true),
      /*zero_copy=*/false);
}

void SaveModel(const MvgClassifier& model, std::ostream& os) {
  model.SaveBinary(os);
}

void SaveModel(const MvgClassifier& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("SaveModel: cannot open " + path +
                             " for writing");
  }
  model.SaveBinary(os);
  os.flush();
  if (!os) {
    throw std::runtime_error("SaveModel: write failed: " + path);
  }
}

MvgClassifier LoadModel(std::istream& is) {
  return MvgClassifier::LoadBinary(is);
}

MvgClassifier LoadModel(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("LoadModel: cannot open " + path);
  }
  return MvgClassifier::LoadBinary(is);
}

MvgClassifier LoadModelView(const void* data, size_t size,
                            ModelVerify verify) {
  return DecodeOpened(
      OpenModelBuffer(data, size,
                      /*verify_payload_crc=*/verify == ModelVerify::kFull),
      /*zero_copy=*/true);
}

uint32_t PeekModelVersion(std::istream& is) {
  char head[sizeof(kModelMagic) + 4];
  is.read(head, sizeof(head));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(head))) {
    throw SerializationError("model file: truncated header");
  }
  return CheckMagicReadVersion(head, sizeof(head));
}

uint32_t PeekModelVersion(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("PeekModelVersion: cannot open " + path);
  }
  return PeekModelVersion(is);
}

}  // namespace mvg
