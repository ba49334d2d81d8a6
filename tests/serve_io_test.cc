// Persistence round trips (serve/model_io.h): every model family and
// every MvgModel preset must survive save -> load with bit-identical
// predictions, and corrupt/truncated/mismatched files must be rejected
// loudly with SerializationError.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/preprocessing.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "ml/svm.h"
#include "serve/model_io.h"
#include "serve/model_mmap.h"
#include "serve/serving.h"
#include "tests/test_util.h"
#include "util/binary_io.h"

namespace mvg {
namespace {

using testutil::MakeNoiseDataset;

// ---------------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------------

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteBool(true);
  w.WriteDouble(-1.5e-300);
  w.WriteString("mvg");
  w.WriteDoubleVec({1.0, -2.5, 3.25});
  w.WriteIntVec({-1, 0, 7});
  w.WriteSizeVec({0, 99});
  w.WriteDoubleMat({{1.0}, {2.0, 3.0}});

  BinaryReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI32(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), -1.5e-300);
  EXPECT_EQ(r.ReadString(), "mvg");
  EXPECT_EQ(r.ReadDoubleVec(), (std::vector<double>{1.0, -2.5, 3.25}));
  EXPECT_EQ(r.ReadIntVec(), (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(r.ReadSizeVec(), (std::vector<size_t>{0, 99}));
  EXPECT_EQ(r.ReadDoubleMat(),
            (std::vector<std::vector<double>>{{1.0}, {2.0, 3.0}}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, LittleEndianLayout) {
  BinaryWriter w;
  w.WriteU32(0x01020304);
  ASSERT_EQ(w.data().size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.data()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(w.data()[3]), 0x01);
}

TEST(BinaryIoTest, UnderflowThrows) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.data());
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_THROW(r.ReadU32(), SerializationError);
}

TEST(BinaryIoTest, CorruptLengthPrefixThrowsInsteadOfAllocating) {
  BinaryWriter w;
  w.WriteU64(~0ull);  // announces ~2^64 doubles with no bytes behind it
  BinaryReader r(w.data());
  EXPECT_THROW(r.ReadDoubleVec(), SerializationError);
}

TEST(BinaryIoTest, Crc32KnownVector) {
  // The standard CRC-32 check value for ASCII "123456789".
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// Per-family classifier round trips (SaveClassifierBinary registry)
// ---------------------------------------------------------------------------

/// Training data for the raw-classifier round trips.
struct FamilyData {
  Matrix x;
  std::vector<int> y;
  Matrix probes;
};

FamilyData MakeFamilyData() {
  FamilyData d;
  Rng rng(7);
  for (size_t i = 0; i < 60; ++i) {
    const int label = static_cast<int>(i % 3);
    std::vector<double> row(6);
    for (double& v : row) v = rng.Uniform() + 0.8 * label;
    d.x.push_back(row);
    d.y.push_back(label + 5);  // non-dense labels exercise the encoder
  }
  for (size_t i = 0; i < 40; ++i) {
    std::vector<double> row(6);
    for (double& v : row) v = 3.0 * rng.Uniform();
    d.probes.push_back(row);
  }
  return d;
}

/// Fit -> registry save -> registry load -> bit-identical PredictProba.
void ExpectRegistryRoundTrip(Classifier* clf) {
  const FamilyData d = MakeFamilyData();
  clf->Fit(d.x, d.y);
  BinaryWriter w;
  SaveClassifierBinary(*clf, &w);
  BinaryReader r(w.data());
  const std::unique_ptr<Classifier> loaded = LoadClassifierBinary(&r);
  EXPECT_TRUE(r.AtEnd()) << "trailing bytes after " << clf->Name();
  ASSERT_EQ(loaded->classes(), clf->classes());
  EXPECT_EQ(loaded->Name(), clf->Name());
  for (const auto& probe : d.probes) {
    const std::vector<double> expected = clf->PredictProba(probe);
    const std::vector<double> actual = loaded->PredictProba(probe);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t c = 0; c < actual.size(); ++c) {
      // Bit-identical, not just close: same doubles in, same code, so any
      // difference means the serialized state is not the fitted state.
      EXPECT_EQ(actual[c], expected[c])
          << clf->Name() << " probe class " << c;
    }
  }
}

TEST(ClassifierRegistryTest, DecisionTreeRoundTrip) {
  DecisionTreeClassifier::Params p;
  p.max_depth = 6;
  DecisionTreeClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, RandomForestRoundTrip) {
  RandomForestClassifier::Params p;
  p.num_trees = 12;
  p.max_depth = 6;
  RandomForestClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, GradientBoostingRoundTrip) {
  GradientBoostingClassifier::Params p;
  p.num_rounds = 15;
  p.max_depth = 3;
  GradientBoostingClassifier clf(p);
  ExpectRegistryRoundTrip(&clf);
  // Feature importances must survive too (Fig. 10 workflow on a loaded
  // model).
  BinaryWriter w;
  SaveClassifierBinary(clf, &w);
  BinaryReader r(w.data());
  const auto loaded = LoadClassifierBinary(&r);
  const auto* gbt = dynamic_cast<const GradientBoostingClassifier*>(
      loaded.get());
  ASSERT_NE(gbt, nullptr);
  EXPECT_EQ(gbt->FeatureGains(), clf.FeatureGains());
}

TEST(ClassifierRegistryTest, SvmRoundTrip) {
  SvmClassifier clf;
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, StackingRoundTrip) {
  std::vector<std::vector<ClassifierFactory>> families;
  families.push_back({[] {
    DecisionTreeClassifier::Params p;
    p.max_depth = 5;
    return std::make_unique<DecisionTreeClassifier>(p);
  }});
  families.push_back({[] { return std::make_unique<SvmClassifier>(); }});
  StackingEnsemble clf(families);
  ExpectRegistryRoundTrip(&clf);
}

TEST(ClassifierRegistryTest, LoadedStackingIsPredictOnly) {
  std::vector<std::vector<ClassifierFactory>> families;
  families.push_back(
      {[] { return std::make_unique<DecisionTreeClassifier>(); }});
  StackingEnsemble clf(families);
  const FamilyData d = MakeFamilyData();
  clf.Fit(d.x, d.y);
  BinaryWriter w;
  SaveClassifierBinary(clf, &w);
  BinaryReader r(w.data());
  const auto loaded = LoadClassifierBinary(&r);
  EXPECT_THROW(loaded->Fit(d.x, d.y), std::runtime_error);
}

/// Fits `clf`, saves its body, rewrites the byte at `offset` (the retired
/// split-mode field) to `value` and loads it into `fresh`.
void LoadWithPatchedByte(Classifier* clf, Classifier* fresh, size_t offset,
                         uint8_t value) {
  const FamilyData d = MakeFamilyData();
  clf->Fit(d.x, d.y);
  BinaryWriter w;
  clf->SaveBinary(&w);
  std::string body = w.data();
  ASSERT_EQ(body[offset], 0) << "writers emit the retired byte as 0";
  body[offset] = static_cast<char>(value);
  BinaryReader r(body);
  fresh->LoadBinary(&r);
}

// Files from before the split mode was retired carry 0 or 1 in its byte;
// both must load and predict as written, anything else is corruption.
// Offsets: DT/RF bodies start with four u64 sizes, a bool and the u64
// seed; the GBT body with eight f64/u64 hyper-parameters and the seed.
TEST(ClassifierRegistryTest, RetiredSplitByteAcceptsZeroOrOneOnly) {
  const FamilyData d = MakeFamilyData();
  const auto check = [&d](auto make, size_t offset) {
    auto clf = make();
    auto legacy = make();
    LoadWithPatchedByte(clf.get(), legacy.get(), offset, 1);
    for (const auto& probe : d.probes) {
      EXPECT_EQ(legacy->PredictProba(probe), clf->PredictProba(probe))
          << clf->Name();
    }
    auto corrupt = make();
    EXPECT_THROW(LoadWithPatchedByte(clf.get(), corrupt.get(), offset, 2),
                 SerializationError)
        << clf->Name();
  };
  check([] { return std::make_unique<DecisionTreeClassifier>(); }, 41);
  check([] {
    RandomForestClassifier::Params p;
    p.num_trees = 5;
    return std::make_unique<RandomForestClassifier>(p);
  }, 41);
  check([] {
    GradientBoostingClassifier::Params p;
    p.num_rounds = 5;
    return std::make_unique<GradientBoostingClassifier>(p);
  }, 72);
}

TEST(ClassifierRegistryTest, UnknownTagRejected) {
  BinaryWriter w;
  w.WriteU32(999);
  BinaryReader r(w.data());
  EXPECT_THROW(LoadClassifierBinary(&r), SerializationError);
}

// ---------------------------------------------------------------------------
// Scalers
// ---------------------------------------------------------------------------

TEST(ScalerIoTest, MinMaxRoundTrip) {
  const FamilyData d = MakeFamilyData();
  MinMaxScaler scaler;
  scaler.Fit(d.x);
  BinaryWriter w;
  scaler.SaveBinary(&w);
  BinaryReader r(w.data());
  MinMaxScaler loaded;
  loaded.LoadBinary(&r);
  for (const auto& probe : d.probes) {
    EXPECT_EQ(loaded.Transform(probe), scaler.Transform(probe));
  }
}

// ---------------------------------------------------------------------------
// Full MvgClassifier model files, all four MvgModel families
// ---------------------------------------------------------------------------

class ModelFileTest : public ::testing::TestWithParam<MvgModel> {
 protected:
  /// Small but non-trivial: 3 classes, enough rows for 3-fold CV.
  static Dataset TrainSet() {
    return MakeNoiseDataset("serve_train", {0, 1, 2}, 8, 64, /*seed=*/11);
  }

  static MvgClassifier Train(MvgModel model) {
    MvgClassifier::Config config;
    config.model = model;
    config.grid = GridPreset::kNone;  // single candidate: fast and exact
    MvgClassifier clf(config);
    clf.Fit(TrainSet());
    return clf;
  }

  static std::string Serialize(const MvgClassifier& clf) {
    std::ostringstream os(std::ios::binary);
    SaveModel(clf, os);
    return os.str();
  }
};

TEST_P(ModelFileTest, SaveLoadPredictIsBitIdentical) {
  const MvgClassifier clf = Train(GetParam());
  const std::string blob = Serialize(clf);
  std::istringstream is(blob, std::ios::binary);
  const MvgClassifier loaded = LoadModel(is);

  EXPECT_EQ(loaded.Name(), clf.Name());
  EXPECT_EQ(loaded.feature_width(), clf.feature_width());
  EXPECT_EQ(loaded.train_length(), clf.train_length());

  // The acceptance bar: identical labels on 100 generated series drawn
  // from families the model never saw.
  size_t checked = 0;
  for (const auto family : testutil::AllSeriesFamilies()) {
    for (uint64_t seed = 0; seed < 25; ++seed) {
      const Series s = testutil::MakeFamilySeries(family, 64, 1000 + seed);
      ASSERT_EQ(loaded.Predict(s), clf.Predict(s))
          << testutil::ToString(family) << " seed " << seed;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 100u);
}

TEST_P(ModelFileTest, SecondSaveIsByteIdentical) {
  const MvgClassifier clf = Train(GetParam());
  EXPECT_EQ(Serialize(clf), Serialize(clf));
}

// Canonical bytes: the file is a pure function of (data, config) — no
// wall times or other run-dependent state — so two independent fits
// compare equal byte for byte.
TEST_P(ModelFileTest, RefitIsByteIdentical) {
  const MvgClassifier a = Train(GetParam());
  const MvgClassifier b = Train(GetParam());
  EXPECT_EQ(Serialize(a), Serialize(b));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ModelFileTest,
                         ::testing::Values(MvgModel::kXgboost,
                                           MvgModel::kRandomForest,
                                           MvgModel::kSvm,
                                           MvgModel::kStacking),
                         [](const auto& info) {
                           switch (info.param) {
                             case MvgModel::kXgboost: return "Xgboost";
                             case MvgModel::kRandomForest: return "RandomForest";
                             case MvgModel::kSvm: return "Svm";
                             case MvgModel::kStacking: return "Stacking";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Corruption / rejection cases (on one cheap family)
// ---------------------------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  static const std::string& Blob() {
    static const std::string blob = [] {
      MvgClassifier::Config config;
      config.model = MvgModel::kSvm;
      config.grid = GridPreset::kNone;
      MvgClassifier clf(config);
      clf.Fit(MakeNoiseDataset("corrupt_train", {0, 1}, 6, 48, 3));
      std::ostringstream os(std::ios::binary);
      SaveModel(clf, os);
      return os.str();
    }();
    return blob;
  }

  static void ExpectRejected(std::string blob) {
    std::istringstream is(blob, std::ios::binary);
    EXPECT_THROW(LoadModel(is), SerializationError);
  }
};

TEST_F(CorruptionTest, BadMagicRejected) {
  std::string blob = Blob();
  blob[0] = 'X';
  ExpectRejected(blob);
}

TEST_F(CorruptionTest, EmptyFileRejected) { ExpectRejected(""); }

TEST_F(CorruptionTest, FutureVersionRejected) {
  std::string blob = Blob();
  blob[8] = static_cast<char>(kModelFormatVersion + 1);  // version u32 LSB
  ExpectRejected(blob);
}

TEST_F(CorruptionTest, TruncatedFileRejected) {
  const std::string& blob = Blob();
  // Every strict prefix must be rejected, never half-loaded. Sampling a
  // spread of cut points keeps the test fast.
  for (size_t cut : {size_t{4}, size_t{15}, size_t{40}, blob.size() / 2,
                     blob.size() - 1}) {
    ExpectRejected(blob.substr(0, cut));
  }
}

TEST_F(CorruptionTest, PayloadBitFlipFailsChecksum) {
  std::string blob = Blob();
  // Flip one byte inside the first section's payload. In the v3 layout
  // payloads start at the first 64-byte-aligned offset past the header
  // (64 bytes) and the three table entries (32 bytes each).
  const size_t first_payload =
      ((kModelHeaderBytes + 3 * kModelTableEntryBytes + kModelPayloadAlign -
        1) /
       kModelPayloadAlign) *
      kModelPayloadAlign;
  ASSERT_LT(first_payload + 8, blob.size());
  blob[first_payload + 8] = static_cast<char>(blob[first_payload + 8] ^ 0x5A);
  ExpectRejected(blob);
}

TEST_F(CorruptionTest, UnfittedModelRefusesToSave) {
  MvgClassifier clf;
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(SaveModel(clf, os), std::runtime_error);
}

TEST_F(CorruptionTest, FileRoundTripViaPath) {
  const std::string path = ::testing::TempDir() + "serve_io_test_model.mvg";
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  const Dataset train = MakeNoiseDataset("path_train", {0, 1}, 6, 48, 5);
  clf.Fit(train);
  SaveModel(clf, path);
  const MvgClassifier loaded = LoadModel(path);
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(loaded.Predict(train.series(i)), clf.Predict(train.series(i)));
  }
  EXPECT_THROW(LoadModel(path + ".does_not_exist"), std::runtime_error);
}

/// A stream whose sink fails every write: exercises the
/// stream-state-after-write-and-flush contract of SaveModel (a full disk
/// or broken pipe must throw, never leave a silently truncated file).
class FailingBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST_F(CorruptionTest, FailingStreamThrowsOnSave) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("failbuf_train", {0, 1}, 6, 48, 3));
  FailingBuf buf;
  std::ostream os(&buf);
  EXPECT_THROW(SaveModel(clf, os), std::runtime_error);
}

// ---------------------------------------------------------------------------
// v3 framing: structural corruption, migration, zero-copy views
// ---------------------------------------------------------------------------

/// v3 structural-corruption fixture with table-tampering helpers.
class V3FramingTest : public CorruptionTest {
 protected:
  static constexpr size_t kTableStart = kModelHeaderBytes;

  /// Byte offset of field `field_off` inside table entry `i`.
  static size_t Entry(size_t i, size_t field_off) {
    return kTableStart + i * kModelTableEntryBytes + field_off;
  }

  static uint64_t GetU64(const std::string& blob, size_t off) {
    uint64_t v = 0;
    std::memcpy(&v, blob.data() + off, sizeof(v));
    return v;  // test runs on little-endian CI; format is little-endian
  }

  static void PutU64(std::string* blob, size_t off, uint64_t v) {
    std::memcpy(&(*blob)[off], &v, sizeof(v));
  }

  static void PutU32(std::string* blob, size_t off, uint32_t v) {
    std::memcpy(&(*blob)[off], &v, sizeof(v));
  }

  /// Recomputes the header's table CRC after a deliberate table edit, so
  /// the test reaches the *structural* validation being exercised instead
  /// of tripping the table-checksum check first.
  static void FixTableCrc(std::string* blob) {
    BinaryReader counter(blob->data() + 12, 4);
    const uint32_t n = counter.ReadU32();
    PutU32(blob, 24,
           Crc32(blob->data() + kTableStart, n * kModelTableEntryBytes));
  }
};

TEST_F(V3FramingTest, WritesCurrentVersion) {
  const std::string& blob = Blob();
  std::istringstream is(blob, std::ios::binary);
  EXPECT_EQ(PeekModelVersion(is), kModelFormatVersion);
  EXPECT_EQ(GetU64(blob, 16), blob.size());  // self-reported file size
}

TEST_F(V3FramingTest, SectionTableTamperFailsTableCrc) {
  std::string blob = Blob();
  blob[Entry(0, 0)] = static_cast<char>(blob[Entry(0, 0)] ^ 0x01);  // tag
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, MisalignedSectionOffsetRejected) {
  std::string blob = Blob();
  PutU64(&blob, Entry(0, 8), GetU64(blob, Entry(0, 8)) + 8);
  FixTableCrc(&blob);
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, OutOfBoundsSectionRejected) {
  std::string blob = Blob();
  // Push the last section's offset past the end of the file (keeping it
  // 64-byte aligned so the bounds check, not the alignment check, fires).
  PutU64(&blob, Entry(2, 8),
         (blob.size() / kModelPayloadAlign + 2) * kModelPayloadAlign);
  FixTableCrc(&blob);
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, OverlappingSectionsRejected) {
  std::string blob = Blob();
  // Alias section 1 (scaler) onto section 0's extent, copying its size
  // and CRC so every per-section check passes and only the overlap scan
  // can catch it.
  PutU64(&blob, Entry(1, 8), GetU64(blob, Entry(0, 8)));   // offset
  PutU64(&blob, Entry(1, 16), GetU64(blob, Entry(0, 16))); // size
  PutU32(&blob, Entry(1, 24),
         static_cast<uint32_t>(GetU64(blob, Entry(0, 24)) & 0xFFFFFFFFu));
  FixTableCrc(&blob);
  ExpectRejected(blob);
}

TEST_F(V3FramingTest, TrailingGarbageRejected) {
  std::string blob = Blob();
  blob.push_back('\0');  // header's file_size no longer matches
  ExpectRejected(blob);
}

/// Model files checked in under tests/fixtures, written by an older
/// build's v2 writer and re-saved as v3 by the last build that read v2
/// (see tests/fixtures/README.md), with the predictions the v2-writing
/// build made on the probe series below.
const char* const kRecordedFixtures[] = {"v3_xgboost", "v3_random_forest",
                                         "v3_svm"};

std::string ReadFixture(const std::string& name) {
  std::ifstream is(std::string(MVG_TEST_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(is.is_open()) << name;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

Series FixtureProbe(uint64_t i) {
  return testutil::MakeFamilySeries(testutil::AllSeriesFamilies()[i % 4], 48,
                                    2000 + i);
}

/// Checks `clf` against a fixture's `.expected` file: one line per probe,
/// the predicted label, then (tree families) the model's class
/// probabilities on the unscaled features as hex floats — bit-exact.
void ExpectFixturePredictions(const MvgClassifier& clf,
                              const std::string& name) {
  std::istringstream lines(ReadFixture(name + ".expected"));
  std::string line;
  uint64_t i = 0;
  for (; std::getline(lines, line); ++i) {
    std::istringstream fields(line);
    int label = 0;
    fields >> label;
    const Series s = FixtureProbe(i);
    EXPECT_EQ(clf.Predict(s), label) << name << " probe " << i;
    std::vector<double> want;
    for (std::string tok; fields >> tok;) {
      want.push_back(std::strtod(tok.c_str(), nullptr));
    }
    if (want.empty()) continue;
    std::vector<double> x = clf.extractor().Extract(s);
    x.resize(clf.feature_width(), 0.0);
    EXPECT_EQ(clf.model().PredictProba(x), want) << name << " probe " << i;
  }
  EXPECT_EQ(i, 16u) << name;
}

// The recorded predictions survive the v2 -> v3 migration bit for bit,
// through both loaders, and the checked-in bytes are canonical: loading
// and re-saving a fixture reproduces it exactly.
TEST_F(V3FramingTest, MigratedFixturesReproduceRecordedPredictions) {
  for (const char* name : kRecordedFixtures) {
    const std::string blob = ReadFixture(std::string(name) + ".mvg");
    {
      std::istringstream is(blob, std::ios::binary);
      EXPECT_EQ(PeekModelVersion(is), kModelFormatVersion) << name;
    }
    std::istringstream is(blob, std::ios::binary);
    const MvgClassifier loaded = LoadModel(is);
    ExpectFixturePredictions(loaded, name);

    std::vector<uint64_t> buf((blob.size() + 7) / 8);
    std::memcpy(buf.data(), blob.data(), blob.size());
    ExpectFixturePredictions(
        LoadModelView(buf.data(), blob.size(), ModelVerify::kFull), name);

    std::ostringstream resaved(std::ios::binary);
    SaveModel(loaded, resaved);
    EXPECT_TRUE(resaved.str() == blob) << name;
  }
}

// v2, the sequential layout before v3, is no longer read: a v2 image
// (magic, version 2, section count, then the sections' payloads from
// byte 16) fails every loader up front with the unsupported-version
// error, before any section is looked at. `section_bytes` of 0x5A stand
// in for a corrupt section.
std::string V2Image(uint32_t sections, size_t section_bytes) {
  BinaryWriter w;
  w.WriteBytes(kModelMagic, sizeof(kModelMagic));
  w.WriteU32(2);  // format version
  w.WriteU32(sections);
  return w.data() + std::string(section_bytes, '\x5A');
}

template <typename Load>
void ExpectV2VersionError(Load&& load) {
  try {
    load();
    ADD_FAILURE() << "v2 file loaded";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(V3FramingTest, CorruptV2SectionStillRejected) {
  for (const std::string& v2 : {V2Image(0, 0), V2Image(1, 32)}) {
    ExpectV2VersionError([&] {
      std::istringstream is(v2, std::ios::binary);
      LoadModel(is);
    });
  }
}

// The pipeline section's retired exact_splits flag (byte 40 of the
// payload: extractor config, model/grid/oversample bytes, cv_folds,
// stacking_top_k and the seed come first) loads as 0 or 1, and anything
// else is rejected.
TEST_F(V3FramingTest, RetiredExactSplitsFlagAcceptsZeroOrOneOnly) {
  const std::string& blob = Blob();
  const size_t payload = GetU64(blob, Entry(0, 8));
  const size_t size = GetU64(blob, Entry(0, 16));
  ASSERT_EQ(blob[payload + 40], 0) << "writers emit the retired flag as 0";
  std::istringstream want_is(blob, std::ios::binary);
  const MvgClassifier want = LoadModel(want_is);
  const Series probe = FixtureProbe(0);

  for (const uint8_t value : {uint8_t{1}, uint8_t{2}}) {
    std::string patched = blob;
    patched[payload + 40] = static_cast<char>(value);
    PutU32(&patched, Entry(0, 24), Crc32(patched.data() + payload, size));
    FixTableCrc(&patched);
    if (value == 1) {
      std::istringstream is(patched, std::ios::binary);
      EXPECT_EQ(LoadModel(is).Predict(probe), want.Predict(probe));
    } else {
      ExpectRejected(patched);
    }
  }
}

/// Zero-copy loads: the same bytes viewed in place must behave exactly
/// like the copying stream load.
class ZeroCopyTest : public ::testing::Test {
 protected:
  static void TrainAndCompare(MvgModel model) {
    MvgClassifier::Config config;
    config.model = model;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    const Dataset train = MakeNoiseDataset("zerocopy_train", {0, 1}, 6, 48, 4);
    clf.Fit(train);

    std::ostringstream os(std::ios::binary);
    SaveModel(clf, os);
    const std::string blob = os.str();

    // An 8-byte-aligned home for the file image (mmap hands out
    // page-aligned memory; a heap test buffer must arrange alignment
    // itself for the in-place node views to engage).
    std::vector<uint64_t> buf((blob.size() + 7) / 8);
    std::memcpy(buf.data(), blob.data(), blob.size());
    const MvgClassifier viewed = LoadModelView(buf.data(), blob.size());

    std::istringstream is(blob, std::ios::binary);
    const MvgClassifier copied = LoadModel(is);
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Series s = testutil::MakeFamilySeries(
          testutil::AllSeriesFamilies()[seed % 4], 48, 2000 + seed);
      const int expect = copied.Predict(s);
      EXPECT_EQ(viewed.Predict(s), expect) << "seed " << seed;
      EXPECT_EQ(clf.Predict(s), expect) << "seed " << seed;
    }
  }
};

TEST_F(ZeroCopyTest, ViewLoadMatchesStreamLoadXgboost) {
  TrainAndCompare(MvgModel::kXgboost);
}

TEST_F(ZeroCopyTest, ViewLoadMatchesStreamLoadRandomForest) {
  TrainAndCompare(MvgModel::kRandomForest);
}

TEST_F(ZeroCopyTest, ViewLoadRejectsV2) {
  for (const std::string& v2 : {V2Image(0, 0), V2Image(1, 32)}) {
    std::vector<uint64_t> buf((v2.size() + 7) / 8);
    std::memcpy(buf.data(), v2.data(), v2.size());
    for (const ModelVerify verify :
         {ModelVerify::kStructure, ModelVerify::kFull}) {
      ExpectV2VersionError(
          [&] { LoadModelView(buf.data(), v2.size(), verify); });
    }
  }
}

// The view load is O(1) by deferring payload CRCs (ModelVerify::
// kStructure, the default): a payload bit flip passes the default open
// but is caught by ModelVerify::kFull and by the stream loader. The
// flipped byte sits in the pipeline section's trailing reserved doubles,
// which decode without error — isolating checksum behavior from decode
// failures.
TEST_F(ZeroCopyTest, ViewLoadDefersPayloadCrcUntilAskedToVerify) {
  MvgClassifier::Config config;
  config.model = MvgModel::kSvm;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(MakeNoiseDataset("zerocopy_crc", {0, 1}, 6, 48, 3));
  std::ostringstream os(std::ios::binary);
  SaveModel(clf, os);
  const std::string blob = os.str();

  std::vector<uint64_t> buf((blob.size() + 7) / 8);
  std::memcpy(buf.data(), blob.data(), blob.size());
  EXPECT_NO_THROW(LoadModelView(buf.data(), blob.size(), ModelVerify::kFull));

  // Pipeline section = first payload; its last 16 bytes are the two
  // reserved wall-time fields, read and ignored by the decoder.
  const size_t first_payload =
      ((kModelHeaderBytes + 3 * kModelTableEntryBytes + kModelPayloadAlign -
        1) /
       kModelPayloadAlign) *
      kModelPayloadAlign;
  size_t pipeline_size = 0;
  std::memcpy(&pipeline_size, blob.data() + kModelHeaderBytes + 8, 8);
  reinterpret_cast<uint8_t*>(buf.data())[first_payload + pipeline_size - 1] ^=
      0x01;

  EXPECT_NO_THROW(LoadModelView(buf.data(), blob.size()));  // kStructure
  EXPECT_THROW(LoadModelView(buf.data(), blob.size(), ModelVerify::kFull),
               SerializationError);
}

TEST_F(ZeroCopyTest, MappedFileSessionMatchesStreamSession) {
  const std::string path = ::testing::TempDir() + "serve_io_test_mmap.mvg";
  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  const Dataset train = MakeNoiseDataset("mmap_train", {0, 1}, 6, 48, 4);
  clf.Fit(train);
  SaveModel(clf, path);

  ServingSession mapped = ServingSession::FromFileMapped(path);
  ServingSession streamed = ServingSession::FromFile(path);
  const std::vector<int> a = mapped.PredictBatch(train.all_series());
  const std::vector<int> b = streamed.PredictBatch(train.all_series());
  EXPECT_EQ(a, b);

  // The mapping must survive moving the session.
  ServingSession moved = std::move(mapped);
  EXPECT_EQ(moved.PredictBatch(train.all_series()), b);
}

/// Model files whose tree splits name a feature at or past the pipeline's
/// feature width. The section and table CRCs are recomputed, so only the
/// loaders' node validation stands between such a file and a read past
/// the row at predict time.
class SplitFeatureBoundTest : public V3FramingTest {
 protected:
  static constexpr size_t kModelEntry = 2;  // pipeline, scaler, model.

  static MvgClassifier Fit(MvgModel model) {
    MvgClassifier::Config config;
    config.model = model;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(MakeNoiseDataset("bound_train", {0, 1, 2}, 10, 64, 9));
    return clf;
  }

  static std::string Serialize(const MvgClassifier& clf) {
    std::ostringstream os(std::ios::binary);
    SaveModel(clf, os);
    return os.str();
  }

  static int32_t GetI32(const std::string& blob, size_t off) {
    int32_t v = 0;
    std::memcpy(&v, blob.data() + off, sizeof(v));
    return v;
  }

  /// Blob offset of the first decision-tree root record in the model
  /// section: an 8-aligned 24-byte node (threshold, feature, left, right,
  /// proba_begin) that splits on a feature below `width` into children
  /// 1 and > 1, followed by node 1, a leaf or a split whose left child
  /// is node 2.
  static size_t FindTreeRoot(const std::string& blob, size_t width) {
    const size_t begin = GetU64(blob, Entry(kModelEntry, 8));
    const size_t end = begin + GetU64(blob, Entry(kModelEntry, 16));
    for (size_t p = begin; p + 48 <= end; p += 8) {
      const int32_t feature = GetI32(blob, p + 8);
      if (feature < 0 || static_cast<size_t>(feature) >= width ||
          GetI32(blob, p + 12) != 1 || GetI32(blob, p + 16) <= 1) {
        continue;
      }
      const bool next_leaf = GetI32(blob, p + 32) == -1 &&
                             GetI32(blob, p + 36) == -1 &&
                             GetI32(blob, p + 40) == -1;
      const bool next_split =
          GetI32(blob, p + 32) >= 0 && GetI32(blob, p + 36) == 2;
      if (next_leaf || next_split) return p;
    }
    ADD_FAILURE() << "no tree root record in the model section";
    return 0;
  }

  /// Re-seals section `entry`'s CRC and the table CRC after an edit.
  static void FixCrcs(std::string* blob, size_t entry) {
    const size_t payload = GetU64(*blob, Entry(entry, 8));
    const size_t size = GetU64(*blob, Entry(entry, 16));
    PutU32(blob, Entry(entry, 24), Crc32(blob->data() + payload, size));
    FixTableCrc(blob);
  }

  static std::string WithSplitFeature(std::string blob, size_t node,
                                      int32_t feature) {
    std::memcpy(&blob[node + 8], &feature, sizeof(feature));
    FixCrcs(&blob, kModelEntry);
    return blob;
  }

  /// Both loaders refuse the file.
  static void ExpectBothRejected(const std::string& blob) {
    ExpectRejected(blob);
    std::vector<uint64_t> buf((blob.size() + 7) / 8);
    std::memcpy(buf.data(), blob.data(), blob.size());
    EXPECT_THROW(LoadModelView(buf.data(), blob.size()), SerializationError);
  }

  /// LoadModel and the fully verified LoadModelView both refuse the file
  /// with a SerializationError whose message contains `want`.
  static void ExpectBothRejectedNaming(const std::string& blob,
                                       const std::string& want) {
    try {
      std::istringstream is(blob, std::ios::binary);
      LoadModel(is);
      ADD_FAILURE() << "LoadModel accepted the file";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    std::vector<uint64_t> buf((blob.size() + 7) / 8);
    std::memcpy(buf.data(), blob.data(), blob.size());
    try {
      LoadModelView(buf.data(), blob.size(), ModelVerify::kFull);
      ADD_FAILURE() << "LoadModelView accepted the file";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }

  /// A split on the last feature loads and predicts; one on the feature
  /// width, or far past it, is rejected.
  static void ExpectSplitBoundEnforced(MvgModel model) {
    const MvgClassifier clf = Fit(model);
    const std::string blob = Serialize(clf);
    const size_t width = clf.feature_width();
    const size_t root = FindTreeRoot(blob, width);
    ASSERT_NE(root, 0u);

    std::istringstream is(
        WithSplitFeature(blob, root, static_cast<int32_t>(width - 1)),
        std::ios::binary);
    const MvgClassifier last = LoadModel(is);
    const int label = last.Predict(FixtureProbe(0));
    EXPECT_GE(label, 0);
    EXPECT_LE(label, 2);

    ExpectBothRejected(
        WithSplitFeature(blob, root, static_cast<int32_t>(width)));
    ExpectBothRejected(WithSplitFeature(blob, root, int32_t{1} << 28));
  }
};

TEST_F(SplitFeatureBoundTest, ForestSplitPastFeatureWidthRejected) {
  ExpectSplitBoundEnforced(MvgModel::kRandomForest);
}

TEST_F(SplitFeatureBoundTest, StackingMemberSplitPastFeatureWidthRejected) {
  ExpectSplitBoundEnforced(MvgModel::kStacking);
}

// A boosted model checks its splits against its own stored width too, but
// the pipeline's width is what Predict pads rows to: shrinking it must
// reject the file. The width is the size field right after the retired
// exact_splits byte (payload byte 40, see above).
TEST_F(SplitFeatureBoundTest, BoostedSplitPastPipelineWidthRejected) {
  const std::string blob = Serialize(Fit(MvgModel::kXgboost));
  std::string narrowed = blob;
  PutU64(&narrowed, GetU64(blob, Entry(0, 8)) + 41, 1);
  FixCrcs(&narrowed, 0);
  ExpectBothRejected(narrowed);
}

/// Model files whose classifier type tag is 5, the retired logistic
/// regression's. The CRCs are resealed, so the tag alone must fail them.
class RetiredTypeTagTest : public SplitFeatureBoundTest {
 protected:
  /// Writes tag 5 at `offset` and expects both loaders to refuse the
  /// file with an error naming the tag.
  static void ExpectTagRejected(std::string blob, size_t offset) {
    PutU32(&blob, offset, 5);
    FixCrcs(&blob, kModelEntry);
    ExpectBothRejectedNaming(blob, "unknown type tag 5");
  }
};

TEST_F(RetiredTypeTagTest, TopLevelModelRejected) {
  const std::string blob = Serialize(Fit(MvgModel::kSvm));
  ExpectTagRejected(blob, GetU64(blob, Entry(kModelEntry, 8)));
}

TEST_F(RetiredTypeTagTest, StackingMemberRejected) {
  const std::string blob = Serialize(Fit(MvgModel::kStacking));
  // Walk the stacking body (docs/FORMATS.md) up to its first member's tag.
  const size_t payload = GetU64(blob, Entry(kModelEntry, 8));
  BinaryReader r(blob.data() + payload, GetU64(blob, Entry(kModelEntry, 16)));
  ASSERT_EQ(r.ReadU32(), 6u);  // stacking
  r.ReadSize();                // top_k_per_family
  r.ReadSize();                // num_folds
  r.ReadU64();                 // seed
  r.ReadSize();                // families
  r.ReadIntVec();              // classes
  r.ReadDoubleVec();           // weights
  r.ReadDoubleVec();           // bias
  ASSERT_GT(r.ReadSize(), 0u);  // members
  ExpectTagRejected(blob, payload + r.pos());
}

/// The SVM body opens with its kernel byte (after the u32 type tag), and
/// prediction evaluates the RBF kernel only: 1 loads, 0 (the retired
/// linear kernel) and anything else fail both loaders. The CRCs are
/// resealed, so the byte alone must fail the file.
class SvmKernelByteTest : public SplitFeatureBoundTest {
 protected:
  static void ExpectKernelRejected(uint8_t kernel, const std::string& want) {
    std::string blob = ReadFixture("v3_svm.mvg");
    const size_t at = GetU64(blob, Entry(kModelEntry, 8)) + 4;
    ASSERT_EQ(blob[at], 1) << "writers emit the RBF kernel byte";
    blob[at] = static_cast<char>(kernel);
    FixCrcs(&blob, kModelEntry);
    ExpectBothRejectedNaming(blob, want);
  }
};

TEST_F(SvmKernelByteTest, RetiredLinearKernelRejected) {
  ExpectKernelRejected(0, "retired linear kernel");
}

TEST_F(SvmKernelByteTest, OutOfRangeKernelRejected) {
  ExpectKernelRejected(2, "out-of-range kernel byte 2");
}

/// Offsets of the retired training slots of a forest model file: in the
/// pipeline section, and in the forest body and its first tree's body.
struct RetiredForestSlots {
  size_t oversample = 0, cv_folds = 0;  ///< pipeline section.
  size_t rf_min_leaf = 0, rf_bootstrap = 0, rf_max_bins = 0;
  size_t tree_min_leaf = 0, tree_use_entropy = 0, tree_max_bins = 0;
};

/// Training-only slots whose fields are retired are read and ignored: the
/// stored trees and leaf distributions alone decide predictions, so a
/// file holding other values there predicts exactly as written. A bool
/// slot still accepts only 0 or 1.
class RetiredTrainingSlotTest : public SplitFeatureBoundTest {
 protected:
  static std::string Forest() { return ReadFixture("v3_random_forest.mvg"); }

  /// Walks the v3 forest fixture (docs/FORMATS.md) to its retired slots,
  /// checking that each holds the constant writers emit.
  static RetiredForestSlots Slots(const std::string& blob) {
    RetiredForestSlots at;
    // Pipeline: the retired exact_splits byte sits at payload byte 40,
    // after oversample (byte 15), cv_folds (16), stacking_top_k (24) and
    // the seed (32).
    const size_t pipeline = GetU64(blob, Entry(0, 8));
    at.oversample = pipeline + 15;
    at.cv_folds = pipeline + 16;
    EXPECT_EQ(blob[at.oversample], 1);
    EXPECT_EQ(GetU64(blob, at.cv_folds), MvgClassifier::kCvFolds);
    EXPECT_EQ(blob[pipeline + 40], 0);

    const size_t payload = GetU64(blob, Entry(kModelEntry, 8));
    BinaryReader r(blob.data() + payload, GetU64(blob, Entry(kModelEntry, 16)));
    EXPECT_EQ(r.ReadU32(), 2u);  // random forest
    r.ReadSize();                // num_trees
    r.ReadSize();                // max_depth
    at.rf_min_leaf = payload + r.pos();
    EXPECT_EQ(r.ReadSize(), 1u);
    EXPECT_EQ(r.ReadSize(), 0u);  // max_features: floor(sqrt(d))
    at.rf_bootstrap = payload + r.pos();
    EXPECT_EQ(r.ReadU8(), 1u);
    r.ReadU64();  // seed
    EXPECT_EQ(r.ReadU8(), 0u);  // split mode
    at.rf_max_bins = payload + r.pos();
    EXPECT_EQ(r.ReadSize(), FeatureTable::kMaxBins);
    r.ReadIntVec();  // classes
    EXPECT_GT(r.ReadSize(), 0u);  // trees
    r.ReadSize();                 // max_depth
    at.tree_min_leaf = payload + r.pos();
    EXPECT_EQ(r.ReadSize(), 1u);
    EXPECT_EQ(r.ReadSize(), 2u);  // min_samples_split
    r.ReadSize();                 // max_features: mtry
    at.tree_use_entropy = payload + r.pos();
    EXPECT_EQ(r.ReadU8(), 0u);
    r.ReadU64();  // seed
    EXPECT_EQ(r.ReadU8(), 0u);  // split mode
    at.tree_max_bins = payload + r.pos();
    EXPECT_EQ(r.ReadSize(), FeatureTable::kMaxBins);
    return at;
  }

  static void Reseal(std::string* blob) {
    FixCrcs(blob, 0);
    FixCrcs(blob, kModelEntry);
  }
};

TEST_F(RetiredTrainingSlotTest, OtherValuesLoadAndPredictAsRecorded) {
  std::string blob = Forest();
  const RetiredForestSlots at = Slots(blob);
  blob[at.oversample] = 0;
  PutU64(&blob, at.cv_folds, 5);
  PutU64(&blob, at.rf_min_leaf, 5);
  blob[at.rf_bootstrap] = 0;
  PutU64(&blob, at.rf_max_bins, 32);
  PutU64(&blob, at.tree_min_leaf, 5);
  PutU64(&blob, at.tree_max_bins, 32);
  Reseal(&blob);

  std::istringstream is(blob, std::ios::binary);
  ExpectFixturePredictions(LoadModel(is), "v3_random_forest");
  std::vector<uint64_t> buf((blob.size() + 7) / 8);
  std::memcpy(buf.data(), blob.data(), blob.size());
  ExpectFixturePredictions(
      LoadModelView(buf.data(), blob.size(), ModelVerify::kFull),
      "v3_random_forest");
}

TEST_F(RetiredTrainingSlotTest, BoolSlotHoldingTwoRejected) {
  const std::string blob = Forest();
  const RetiredForestSlots at = Slots(blob);
  for (const size_t slot :
       {at.oversample, at.rf_bootstrap, at.tree_use_entropy}) {
    std::string patched = blob;
    patched[slot] = 2;
    Reseal(&patched);
    ExpectBothRejectedNaming(patched, "out-of-range value 2");
  }
}

TEST_F(ZeroCopyTest, MappedFileBasics) {
  const std::string path = ::testing::TempDir() + "serve_io_test_raw.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "mapped bytes";
  }
  MappedFile map(path);
  EXPECT_EQ(map.size(), 12u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(map.data()), map.size()),
            "mapped bytes");
  EXPECT_THROW(MappedFile(path + ".does_not_exist"), std::runtime_error);
}

}  // namespace
}  // namespace mvg
