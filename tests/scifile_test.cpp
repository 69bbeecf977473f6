#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "scifile/cdl.hpp"
#include "scifile/dataset.hpp"
#include "scifile/output_writers.hpp"
#include "support/frozen_writer.hpp"
#include "support/staged_dataset.hpp"
#include "support/temp_dir.hpp"

namespace sidr::sci {
namespace {

using testsupport::fileBytes;
using testsupport::frozenWriteRegion;
using testsupport::StagedDataset;
using testsupport::TempDir;

Metadata paperMetadata() {
  Metadata meta;
  meta.addDimension("time", 365);
  meta.addDimension("lat", 250);
  meta.addDimension("lon", 200);
  meta.addVariable("temperature", DataType::kInt32, {"time", "lat", "lon"});
  return meta;
}

TEST(Metadata, DataTypeSizes) {
  EXPECT_EQ(dataTypeSize(DataType::kInt32), 4u);
  EXPECT_EQ(dataTypeSize(DataType::kInt64), 8u);
  EXPECT_EQ(dataTypeSize(DataType::kFloat32), 4u);
  EXPECT_EQ(dataTypeSize(DataType::kFloat64), 8u);
}

TEST(Metadata, VariableShapeAndSizes) {
  Metadata meta = paperMetadata();
  EXPECT_EQ(meta.variableShape(0), (nd::Coord{365, 250, 200}));
  EXPECT_EQ(meta.variableElementCount(0), 365LL * 250 * 200);
  EXPECT_EQ(meta.variableByteSize(0), 365ULL * 250 * 200 * 4);
}

TEST(Metadata, UnknownNamesThrow) {
  Metadata meta = paperMetadata();
  EXPECT_THROW(meta.variableIndex("windspeed"), std::invalid_argument);
  EXPECT_THROW(meta.addVariable("v", DataType::kInt32, {"nope"}),
               std::invalid_argument);
  EXPECT_THROW(meta.addDimension("bad", 0), std::invalid_argument);
}

TEST(Metadata, TextRenderingMatchesPaperFigure1) {
  // Figure 1 of the paper renders this exact structure.
  std::string text = paperMetadata().toText();
  EXPECT_NE(text.find("time = 365;"), std::string::npos);
  EXPECT_NE(text.find("lat = 250;"), std::string::npos);
  EXPECT_NE(text.find("lon = 200;"), std::string::npos);
  EXPECT_NE(text.find("int temperature(time, lat, lon);"),
            std::string::npos);
}

TEST(Metadata, SerializeRoundTrip) {
  Metadata meta = paperMetadata();
  meta.setAttribute("origin", "{0, 0, 0}");
  meta.setAttribute("note", "unit test");
  Metadata back = Metadata::deserialize(meta.serialize());
  EXPECT_EQ(back, meta);
  EXPECT_EQ(back.attribute("origin"), "{0, 0, 0}");
  EXPECT_EQ(back.attribute("missing"), "");
}

TEST(Metadata, AttributeReplace) {
  Metadata meta;
  meta.setAttribute("k", "v1");
  meta.setAttribute("k", "v2");
  EXPECT_EQ(meta.attribute("k"), "v2");
  EXPECT_EQ(meta.attributes().size(), 1u);
}

TEST(MemoryStorage, ReadWriteResize) {
  MemoryStorage s;
  std::vector<std::byte> data{std::byte{1}, std::byte{2}, std::byte{3}};
  s.writeAt(5, data);
  EXPECT_EQ(s.size(), 8u);
  std::vector<std::byte> back(3);
  s.readAt(5, back);
  EXPECT_EQ(back, data);
  EXPECT_THROW(s.readAt(7, back), std::out_of_range);
  s.resize(2);
  EXPECT_EQ(s.size(), 2u);
}

TEST(FileStorage, ReadWritePersistence) {
  TempDir dir;
  std::string path = dir.file("f.bin");
  std::vector<std::byte> data(100, std::byte{0xAB});
  {
    FileStorage s(path, FileStorage::Mode::kCreate);
    s.writeAt(10, data);
    // Reads and size() on a writable handle see unflushed writes.
    EXPECT_EQ(s.size(), 110u);
    std::vector<std::byte> back(100);
    s.readAt(10, back);
    EXPECT_EQ(back, data);
    s.flush();
    EXPECT_EQ(s.size(), 110u);
  }
  {
    FileStorage s(path, FileStorage::Mode::kOpenReadOnly);
    std::vector<std::byte> back(100);
    s.readAt(10, back);
    EXPECT_EQ(back, data);
    EXPECT_THROW(s.writeAt(0, data), std::logic_error);
  }
}

TEST(FileStorage, ShortReadThrows) {
  TempDir dir;
  std::string path = dir.file("short.bin");
  FileStorage s(path, FileStorage::Mode::kCreate);
  s.writeAt(0, std::vector<std::byte>(16, std::byte{1}));
  std::vector<std::byte> back(8);
  EXPECT_THROW(s.readAt(12, back), std::runtime_error);
}

TEST(FileStorage, OpenMissingFileThrows) {
  EXPECT_THROW(FileStorage("/nonexistent/dir/file.bin",
                           FileStorage::Mode::kOpenExisting),
               std::system_error);
}

TEST(Dataset, RegionRoundTripMemory) {
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, paperMetadata());
  nd::Region r(nd::Coord{100, 50, 20}, nd::Coord{3, 4, 5});
  std::vector<double> values(static_cast<std::size_t>(r.volume()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) - 30.0;
  }
  ds.writeRegion(0, r, values);
  EXPECT_EQ(ds.readRegion(0, r), values);
}

TEST(Dataset, RegionOutOfBoundsThrows) {
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, paperMetadata());
  nd::Region bad(nd::Coord{364, 0, 0}, nd::Coord{2, 1, 1});
  std::vector<double> v(2, 0.0);
  EXPECT_THROW(ds.writeRegion(0, bad, v), std::out_of_range);
  EXPECT_THROW(
      ds.writeRegion(0, nd::Region(nd::Coord{0, 0, 0}, nd::Coord{1, 1, 1}), v),
      std::invalid_argument);
}

TEST(Dataset, Int32TypeConversionTruncates) {
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, paperMetadata());
  nd::Region r(nd::Coord{0, 0, 0}, nd::Coord{1, 1, 2});
  ds.writeRegion(0, r, std::vector<double>{3.9, -2.9});
  std::vector<double> back = ds.readRegion(0, r);
  EXPECT_EQ(back[0], 3.0);   // int32 storage truncates
  EXPECT_EQ(back[1], -2.0);
}

TEST(Dataset, IntegerTypesRefuseValuesTheyCannotHold) {
  // Converting a double to an integer type is undefined unless its
  // truncation fits the type, so writeRegion and fill refuse NaN, the
  // infinities and out-of-range values before writing any byte, even
  // when the bad value sits behind two staging buffers of good ones.
  TempDir dir;
  const std::string path = dir.file("ints.sndf");
  const auto n = static_cast<nd::Index>(
      2 * RegionRuns::kStagingBytes / sizeof(std::int32_t) + 5);
  Metadata meta;
  meta.addDimension("n", n);
  meta.addVariable("i32", DataType::kInt32, {"n"});
  meta.addVariable("i64", DataType::kInt64, {"n"});
  Dataset ds = Dataset::create(
      std::make_shared<FileStorage>(path, FileStorage::Mode::kCreate), meta);
  ds.fill(0, 7.0);
  ds.fill(1, -7.0);
  const std::vector<char> before = fileBytes(path);

  const nd::Region whole = nd::Region::wholeSpace(nd::Coord{n});
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<std::size_t, double> refused[] = {
      {0, kNaN}, {0, kInf}, {0, -kInf}, {0, 0x1p31}, {0, -2147483649.0},
      {1, kNaN}, {1, kInf}, {1, -kInf}, {1, 0x1p63},
      {1, -0x1.0000000000001p63}};  // the double below -2^63
  for (const auto& [var, bad] : refused) {
    SCOPED_TRACE("variable " + std::to_string(var) + ", value " +
                 std::to_string(bad));
    std::vector<double> values(static_cast<std::size_t>(n), 1.0);
    values.back() = bad;
    EXPECT_THROW(ds.writeRegion(var, whole, values), std::invalid_argument);
    EXPECT_THROW(ds.fill(var, bad), std::invalid_argument);
  }
  EXPECT_EQ(fileBytes(path), before);

  // Values whose truncation fits are stored, at both ends of each range.
  const nd::Region four(nd::Coord{0}, nd::Coord{4});
  ds.writeRegion(0, four,
                 std::vector<double>{2147483647.9, -2147483648.9, -0.9, 0.5});
  EXPECT_EQ(ds.readRegion(0, four),
            (std::vector<double>{2147483647.0, -2147483648.0, 0.0, 0.0}));
  const nd::Region two(nd::Coord{0}, nd::Coord{2});
  ds.writeRegion(1, two, std::vector<double>{0x1.fffffffffffffp62, -0x1p63});
  EXPECT_EQ(ds.readRegion(1, two),
            (std::vector<double>{0x1.fffffffffffffp62, -0x1p63}));
}

TEST(Dataset, OpenRoundTripFile) {
  TempDir dir;
  std::string path = dir.file("ds.sndf");
  nd::Region r(nd::Coord{7, 8, 9}, nd::Coord{2, 2, 2});
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8};
  {
    auto storage = std::make_shared<FileStorage>(path,
                                                 FileStorage::Mode::kCreate);
    Dataset ds = Dataset::create(storage, paperMetadata());
    ds.writeRegion(0, r, values);
    storage->flush();
  }
  {
    auto storage = std::make_shared<FileStorage>(
        path, FileStorage::Mode::kOpenReadOnly);
    Dataset ds = Dataset::open(storage);
    EXPECT_EQ(ds.metadata(), paperMetadata());
    EXPECT_EQ(ds.readRegion(0, r), values);
  }
}

TEST(Dataset, ConcurrentReadsThroughOneSharedHandle) {
  // Map tasks of one job read the same dataset concurrently through one
  // shared FileStorage; every thread must decode exactly the generator's
  // values, whatever the other threads are reading at the time.
  TempDir dir;
  const std::string path = dir.file("shared.sndf");
  const nd::Coord shape{48, 40, 36};
  auto valueAt = [&shape](const nd::Coord& c) {
    return 0.5 * static_cast<double>(nd::linearize(c, shape)) + 1.0;
  };
  Metadata meta;
  meta.addDimension("t", shape[0]);
  meta.addDimension("y", shape[1]);
  meta.addDimension("x", shape[2]);
  meta.addVariable("v", DataType::kFloat64, {"t", "y", "x"});
  {
    auto storage = std::make_shared<FileStorage>(path,
                                                 FileStorage::Mode::kCreate);
    Dataset ds = Dataset::create(storage, meta);
    const nd::Region whole = nd::Region::wholeSpace(shape);
    std::vector<double> values;
    for (nd::RegionCursor c(whole); c.valid(); c.next()) {
      values.push_back(valueAt(c.coord()));
    }
    ds.writeRegion(0, whole, values);
    storage->flush();
  }
  const Dataset shared = Dataset::open(
      std::make_shared<FileStorage>(path, FileStorage::Mode::kOpenReadOnly));

  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 400;
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kReadsPerThread; ++i) {
        nd::Coord corner = nd::Coord::zeros(3);
        nd::Coord extent = nd::Coord::zeros(3);
        for (std::size_t d = 0; d < 3; ++d) {
          corner[d] = static_cast<nd::Index>(
              rng() % static_cast<std::uint64_t>(shape[d]));
          extent[d] = 1 + static_cast<nd::Index>(
                              rng() % static_cast<std::uint64_t>(
                                          shape[d] - corner[d]));
        }
        const nd::Region region(corner, extent);
        try {
          const std::vector<double> got = shared.readRegion(0, region);
          std::size_t k = 0;
          for (nd::RegionCursor c(region); c.valid(); c.next(), ++k) {
            if (got[k] != valueAt(c.coord())) ++wrong;
          }
        } catch (const std::exception&) {
          ++thrown;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(thrown.load(), 0u);
}

TEST(Dataset, ConcurrentWritesThroughOneSharedHandle) {
  // Four threads write disjoint column bands through one shared
  // FileStorage, so every file row holds bytes from all four and their
  // positioned writes land side by side; each band is rewritten with
  // new values every round. Every value read back must be the last
  // round's.
  TempDir dir;
  const std::string path = dir.file("writers.sndf");
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  constexpr nd::Index kBand = 9;
  const nd::Coord shape{6, 40, kThreads * kBand};
  auto valueAt = [&shape](const nd::Coord& c, int round) {
    return 0.25 * static_cast<double>(nd::linearize(c, shape)) +
           1000.0 * round;
  };
  Metadata meta;
  meta.addDimension("t", shape[0]);
  meta.addDimension("y", shape[1]);
  meta.addDimension("x", shape[2]);
  meta.addVariable("v", DataType::kFloat64, {"t", "y", "x"});
  Dataset shared = Dataset::create(
      std::make_shared<FileStorage>(path, FileStorage::Mode::kCreate), meta);

  std::atomic<std::uint64_t> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const nd::Region band(nd::Coord{0, 0, t * kBand},
                            nd::Coord{shape[0], shape[1], kBand});
      std::vector<double> values;
      for (int round = 0; round < kRounds; ++round) {
        values.clear();
        for (nd::RegionCursor c(band); c.valid(); c.next()) {
          values.push_back(valueAt(c.coord(), round));
        }
        try {
          shared.writeRegion(0, band, values);
        } catch (const std::exception&) {
          ++thrown;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(thrown.load(), 0u);

  const nd::Region whole = nd::Region::wholeSpace(shape);
  const std::vector<double> got = shared.readRegion(0, whole);
  std::size_t k = 0;
  std::size_t wrong = 0;
  for (nd::RegionCursor c(whole); c.valid(); c.next(), ++k) {
    if (got[k] != valueAt(c.coord(), kRounds - 1)) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
}

TEST(Dataset, OpenRejectsGarbage) {
  auto storage = std::make_shared<MemoryStorage>();
  std::vector<std::byte> junk(64, std::byte{0x5A});
  storage->writeAt(0, junk);
  EXPECT_THROW(Dataset::open(storage), std::runtime_error);
}

TEST(Dataset, OpenRejectsOversizedMetadataLength) {
  // A valid magic followed by a metadata length the storage cannot hold
  // is garbage too: rejected before anything is allocated, whether the
  // length is beyond the allocator (2^40) or merely past the end.
  for (const std::uint64_t claimed : {std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 20,
                                      std::uint64_t{49}}) {
    SCOPED_TRACE("claimed " + std::to_string(claimed));
    std::vector<std::byte> head(64, std::byte{0});
    const char magic[8] = {'S', 'N', 'D', 'F', '1', '\0', '\0', '\0'};
    std::memcpy(head.data(), magic, sizeof(magic));
    for (int b = 0; b < 8; ++b) {
      head[8 + static_cast<std::size_t>(b)] =
          static_cast<std::byte>((claimed >> (b * 8)) & 0xff);
    }
    auto storage = std::make_shared<MemoryStorage>();
    storage->writeAt(0, head);
    EXPECT_THROW(Dataset::open(storage), std::runtime_error);
  }
}

TEST(Dataset, FillWholeVariable) {
  Metadata meta;
  meta.addDimension("x", 100);
  meta.addDimension("y", 100);
  meta.addVariable("v", DataType::kFloat64, {"x", "y"});
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, meta);
  ds.fill(0, -99.0);
  auto all = ds.readRegion(0, nd::Region::wholeSpace(nd::Coord{100, 100}));
  for (double v : all) EXPECT_EQ(v, -99.0);
}

TEST(Dataset, MultipleVariablesHaveDisjointPayloads) {
  Metadata meta;
  meta.addDimension("x", 10);
  meta.addVariable("a", DataType::kFloat64, {"x"});
  meta.addVariable("b", DataType::kFloat64, {"x"});
  auto storage = std::make_shared<MemoryStorage>();
  Dataset ds = Dataset::create(storage, meta);
  std::vector<double> va(10, 1.0);
  std::vector<double> vb(10, 2.0);
  nd::Region whole = nd::Region::wholeSpace(nd::Coord{10});
  ds.writeRegion(0, whole, va);
  ds.writeRegion(1, whole, vb);
  EXPECT_EQ(ds.readRegion(0, whole), va);
  EXPECT_EQ(ds.readRegion(1, whole), vb);
  EXPECT_EQ(ds.variableOffset(1) - ds.variableOffset(0), 80u);
}

// ---- RegionWalker: bounded staging reads ----

TEST(RegionWalker, ReadsAcrossStagingRefills) {
  for (const DataType type : testsupport::kAllDataTypes) {
    TempDir dir;
    const StagedDataset file(dir, type);
    ASSERT_NE((RegionRuns::kStagingBytes / dataTypeSize(type)) % 25, 0u);
    for (const nd::Region& region : file.regions()) {
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)) +
                   ", region " + region.toString());
      ASSERT_GT(static_cast<std::uint64_t>(region.volume()) *
                    dataTypeSize(type),
                2 * RegionRuns::kStagingBytes);
      const std::vector<double> all = file.dataset->readRegion(0, region);
      ASSERT_EQ(all.size(), static_cast<std::size_t>(region.volume()));
      std::size_t k = 0;
      std::size_t wrong = 0;
      for (nd::RegionCursor c(region); c.valid(); c.next(), ++k) {
        if (all[k] != file.expected(c.coord())) ++wrong;
      }
      EXPECT_EQ(wrong, 0u);

      // The same values in uneven pieces, so reads end mid-row,
      // mid-buffer and exactly on a refill.
      RegionWalker walker(*file.dataset, 0, region);
      std::vector<double> piece(512);
      const std::size_t sizes[] = {1, 7, 512, 33, 25};
      std::size_t at = 0;
      for (std::size_t i = 0; walker.remaining() > 0; ++i) {
        const std::size_t n = std::min<std::size_t>(
            sizes[i % std::size(sizes)], walker.remaining());
        walker.read({piece.data(), n});
        for (std::size_t j = 0; j < n; ++j) {
          if (piece[j] != all[at + j]) ++wrong;
        }
        at += n;
      }
      EXPECT_EQ(at, all.size());
      EXPECT_EQ(wrong, 0u);
      EXPECT_THROW(walker.read({piece.data(), 1}), std::out_of_range);
    }
  }
}

TEST(RegionWalker, BoundsCheckedWhenBuilt) {
  TempDir dir;
  const StagedDataset file(dir, DataType::kFloat32);
  EXPECT_THROW(RegionWalker(*file.dataset, 0,
                            nd::Region(nd::Coord{4, 0, 0},
                                       nd::Coord{2, 1, 1})),
               std::out_of_range);
  EXPECT_THROW(RegionWalker(*file.dataset, 0, nd::Region()),
               std::out_of_range);  // rank 0 against a rank-3 variable

  Metadata scalar;
  scalar.addVariable("s", DataType::kFloat64, {});
  const Dataset ds = Dataset::create(std::make_shared<MemoryStorage>(), scalar);
  EXPECT_THROW(RegionWalker(ds, 0, nd::Region()), std::invalid_argument);
}

// ---- RegionWriter: coalesced staging writes ----

/// A file with the staged rank-3 variable and a rank-1 variable longer
/// than two staging buffers, both covered by a background the regions
/// under test overwrite, so a write outside its region shows.
struct WriterFile {
  WriterFile(const TempDir& dir, const std::string& name,
             const nd::Coord& stagedShape, DataType type)
      : path(dir.file(name)) {
    const auto lineLen = static_cast<nd::Index>(
        2 * RegionRuns::kStagingBytes / dataTypeSize(type) + 7);
    Metadata meta;
    meta.addDimension("t", stagedShape[0]);
    meta.addDimension("y", stagedShape[1]);
    meta.addDimension("x", stagedShape[2]);
    meta.addDimension("n", lineLen);
    meta.addVariable("v", type, {"t", "y", "x"});
    meta.addVariable("line", type, {"n"});
    dataset = std::make_shared<Dataset>(Dataset::create(
        std::make_shared<FileStorage>(path, FileStorage::Mode::kCreate),
        meta));
    for (std::size_t var = 0; var < 2; ++var) {
      const nd::Region whole =
          nd::Region::wholeSpace(meta.variableShape(var));
      frozenWriteRegion(*dataset, var, whole,
                        regionValues(whole, -3.0 - static_cast<double>(var)));
    }
  }

  /// Row-major values for `region`, distinct per position and `salt`.
  static std::vector<double> regionValues(const nd::Region& region,
                                          double salt) {
    std::vector<double> values(static_cast<std::size_t>(region.volume()));
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = testsupport::stagedValue(static_cast<nd::Index>(i)) +
                  100.0 * salt;
    }
    return values;
  }

  std::string path;
  std::shared_ptr<Dataset> dataset;
};

TEST(RegionWriter, FilesMatchTheRowAtATimeWriter) {
  for (const DataType type : testsupport::kAllDataTypes) {
    TempDir dir;
    const StagedDataset staged(dir, type);
    // (variable, region): the whole variable, then the staged regions
    // (a slab, non-adjacent multi-row runs, a sub-box), then a rank-1
    // run longer than two staging buffers that starts mid-variable.
    std::vector<std::pair<std::size_t, nd::Region>> cases{
        {0, nd::Region::wholeSpace(staged.shape)}};
    for (const nd::Region& r : staged.regions()) cases.emplace_back(0, r);
    const WriterFile frozen(dir, "frozen.sndf", staged.shape, type);
    const WriterFile whole(dir, "whole.sndf", staged.shape, type);
    const WriterFile pieces(dir, "pieces.sndf", staged.shape, type);
    const nd::Coord lineShape = frozen.dataset->metadata().variableShape(1);
    cases.emplace_back(
        1, nd::Region(nd::Coord{3}, nd::Coord{lineShape[0] - 5}));

    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& [var, region] = cases[i];
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)) +
                   ", variable " + std::to_string(var) + ", region " +
                   region.toString());
      const std::vector<double> values =
          WriterFile::regionValues(region, static_cast<double>(i));
      frozenWriteRegion(*frozen.dataset, var, region, values);
      whole.dataset->writeRegion(var, region, values);
      // The same values in uneven calls that end mid-row and mid-piece
      // (fillDataset's batches end exactly on piece boundaries).
      RegionWriter writer(*pieces.dataset, var, region);
      const std::size_t sizes[] = {1, 7, 512, 33, 25};
      std::size_t at = 0;
      for (std::size_t k = 0; writer.remaining() > 0; ++k) {
        const std::size_t n = std::min<std::size_t>(
            sizes[k % std::size(sizes)], writer.remaining());
        writer.write({values.data() + at, n});
        at += n;
      }
      EXPECT_THROW(writer.write({values.data(), 1}), std::out_of_range);

      const std::vector<char> want = fileBytes(frozen.path);
      EXPECT_TRUE(fileBytes(whole.path) == want);
      EXPECT_TRUE(fileBytes(pieces.path) == want);
    }
  }
}

TEST(Dataset, FillMatchesTheRowAtATimeWriter) {
  for (const DataType type : testsupport::kAllDataTypes) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)));
    TempDir dir;
    const StagedDataset staged(dir, type);
    const WriterFile frozen(dir, "frozen.sndf", staged.shape, type);
    const WriterFile filled(dir, "filled.sndf", staged.shape, type);
    for (std::size_t var = 0; var < 2; ++var) {
      const nd::Region whole = nd::Region::wholeSpace(
          frozen.dataset->metadata().variableShape(var));
      frozenWriteRegion(
          *frozen.dataset, var, whole,
          std::vector<double>(static_cast<std::size_t>(whole.volume()),
                              -99.5 + static_cast<double>(var)));
      filled.dataset->fill(var, -99.5 + static_cast<double>(var));
    }
    EXPECT_TRUE(fileBytes(filled.path) == fileBytes(frozen.path));
  }
}

/// Storage that keeps no bytes, only the size of every writeAt.
class CountingStorage final : public Storage {
 public:
  void readAt(std::uint64_t, std::span<std::byte>) const override {
    throw std::logic_error("CountingStorage keeps no bytes");
  }
  void writeAt(std::uint64_t offset, std::span<const std::byte> buf) override {
    writes.push_back(buf.size());
    end_ = std::max(end_, offset + buf.size());
  }
  std::uint64_t size() const override { return end_; }
  void resize(std::uint64_t newSize) override { end_ = newSize; }

  std::vector<std::size_t> writes;

 private:
  std::uint64_t end_ = 0;
};

TEST(RegionWriter, OnePositionedWritePerPiece) {
  // File-adjacent rows go out as one run, in writes of one staging
  // buffer each (the last one shorter); rows that are not adjacent are
  // one write each.
  for (const DataType type : testsupport::kAllDataTypes) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)));
    const std::size_t elemSize = dataTypeSize(type);
    const std::size_t stagingElems = RegionRuns::kStagingBytes / elemSize;
    const nd::Coord shape{5, static_cast<nd::Index>(stagingElems / 25 + 3),
                          25};
    auto storage = std::make_shared<CountingStorage>();
    Metadata meta;
    meta.addDimension("t", shape[0]);
    meta.addDimension("y", shape[1]);
    meta.addDimension("x", shape[2]);
    meta.addVariable("v", type, {"t", "y", "x"});
    Dataset ds = Dataset::create(storage, meta);

    auto writesFor = [&](const nd::Region& region) {
      storage->writes.clear();
      ds.writeRegion(0, region,
                     std::vector<double>(
                         static_cast<std::size_t>(region.volume()), 2.0));
      return storage->writes;
    };
    auto pieces = [&](std::uint64_t runElems, std::uint64_t runs) {
      std::vector<std::size_t> want;
      for (std::uint64_t r = 0; r < runs; ++r) {
        for (std::uint64_t left = runElems; left > 0;) {
          const std::uint64_t n = std::min<std::uint64_t>(left, stagingElems);
          want.push_back(static_cast<std::size_t>(n * elemSize));
          left -= n;
        }
      }
      return want;
    };
    const auto rows = static_cast<std::uint64_t>(shape[1]);
    EXPECT_EQ(writesFor(nd::Region::wholeSpace(shape)),
              pieces(5 * rows * 25, 1));
    EXPECT_EQ(writesFor(nd::Region(nd::Coord{0, 1, 0},
                                   nd::Coord{5, shape[1] - 2, 25})),
              pieces((rows - 2) * 25, 5));
    EXPECT_EQ(writesFor(nd::Region(nd::Coord{1, 2, 3},
                                   nd::Coord{3, shape[1] - 4, 20})),
              pieces(20, 3 * (rows - 4)));
  }
}

TEST(RegionWriter, BenchmarkVariableTakesOneWritePerStagingBuffer) {
  // The repository benchmark's input, {360, 36, 72, 25} float32, written
  // as a whole: one run of 93,312,000 bytes, so 356 writes of at most
  // 256 KiB instead of 933,120 row writes.
  const nd::Coord shape{360, 36, 72, 25};
  Metadata meta;
  std::vector<std::string> dims;
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    dims.push_back("d" + std::to_string(d));
    meta.addDimension(dims.back(), shape[d]);
  }
  meta.addVariable("wind", DataType::kFloat32, dims);

  auto storage = std::make_shared<CountingStorage>();
  Dataset ds = Dataset::create(storage, meta);
  storage->writes.clear();

  RegionWriter writer(ds, 0, nd::Region::wholeSpace(shape));
  const std::vector<double> batch(4096, 5.0);
  while (writer.remaining() > 0) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch.size(), writer.remaining()));
    writer.write({batch.data(), n});
  }
  EXPECT_EQ(meta.variableByteSize(0), 93'312'000u);
  EXPECT_EQ(storage->writes.size(), 356u);
  EXPECT_EQ(*std::max_element(storage->writes.begin(), storage->writes.end()),
            RegionRuns::kStagingBytes);
}

TEST(OutputWriters, DenseChunkRoundTrip) {
  TempDir dir;
  nd::Coord total{52, 50, 200};
  nd::Region chunk(nd::Coord{13, 0, 0}, nd::Coord{13, 50, 200});
  std::vector<double> values(static_cast<std::size_t>(chunk.volume()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 97);
  }
  WriteReport rep = writeDenseChunk(dir.file("chunk.sndf"), "out",
                                    DataType::kFloat64, total, chunk, values);
  EXPECT_EQ(rep.bytesWritten, values.size() * 8);
  // Dense chunk file size ~ chunk bytes + small header, NOT total bytes.
  EXPECT_LT(rep.fileSize, values.size() * 8 + 4096);

  auto [origin, back] = readDenseChunk(dir.file("chunk.sndf"), "out");
  EXPECT_EQ(origin, (nd::Coord{13, 0, 0}));
  EXPECT_EQ(back, values);
}

TEST(OutputWriters, SentinelFileIsTotalSized) {
  TempDir dir;
  nd::Coord total{40, 40};
  std::vector<nd::Coord> coords{{3, 3}, {10, 20}, {39, 39}};
  std::vector<double> values{1.5, 2.5, 3.5};
  WriteReport rep =
      writeSentinelFile(dir.file("sent.sndf"), "out", DataType::kFloat64,
                        total, -9999.0, coords, values);
  // The file must hold the WHOLE output space regardless of how few
  // keys this reduce task owns — the Table 2 pathology.
  EXPECT_GE(rep.fileSize, 40u * 40u * 8u);

  auto storage = std::make_shared<FileStorage>(
      dir.file("sent.sndf"), FileStorage::Mode::kOpenReadOnly);
  Dataset ds = Dataset::open(storage);
  nd::Coord one = nd::Coord::ones(2);
  EXPECT_EQ(ds.readRegion(0, nd::Region(coords[1], one))[0], 2.5);
  EXPECT_EQ(ds.readRegion(0, nd::Region(nd::Coord{0, 0}, one))[0], -9999.0);
}

TEST(OutputWriters, CoordPairsRoundTrip) {
  TempDir dir;
  std::vector<nd::Coord> coords{{1, 2, 3}, {4, 5, 6}};
  std::vector<double> values{-1.25, 8.75};
  WriteReport rep = writeCoordPairs(dir.file("pairs.bin"), coords, values);
  // Storage overhead: rank coords + value per element, plus tiny header.
  EXPECT_EQ(rep.fileSize, 16u + 2u * (3u + 1u) * 8u);
  auto [backCoords, backValues] = readCoordPairs(dir.file("pairs.bin"));
  EXPECT_EQ(backCoords, coords);
  EXPECT_EQ(backValues, values);
}

TEST(OutputWriters, MismatchedSpansThrow) {
  TempDir dir;
  std::vector<nd::Coord> coords{{1, 1}};
  std::vector<double> values{1.0, 2.0};
  EXPECT_THROW(writeCoordPairs(dir.file("x.bin"), coords, values),
               std::invalid_argument);
  EXPECT_THROW(writeSentinelFile(dir.file("y.sndf"), "v", DataType::kFloat64,
                                 nd::Coord{4, 4}, 0.0, coords, values),
               std::invalid_argument);
}

TEST(Cdl, ParsesPaperFigure1) {
  Metadata meta = parseCdl(
      "dimensions:\n"
      "  time = 365;\n"
      "  lat = 250;\n"
      "  lon = 200;\n"
      "variables:\n"
      "  int temperature(time, lat, lon);\n");
  EXPECT_EQ(meta, paperMetadata());
}

TEST(Cdl, RoundTripsToText) {
  Metadata meta;
  meta.addDimension("x", 10);
  meta.addDimension("y", 20);
  meta.addVariable("a", DataType::kFloat64, {"x", "y"});
  meta.addVariable("b", DataType::kInt64, {"y"});
  meta.addVariable("c", DataType::kFloat32, {"x"});
  EXPECT_EQ(parseCdl(meta.toText()), meta);
}

TEST(Cdl, AllTypes) {
  Metadata meta = parseCdl(
      "dimensions:\n n = 4;\n"
      "variables:\n"
      " int a(n);\n long b(n);\n float c(n);\n double d(n);\n");
  EXPECT_EQ(meta.variable(0).type, DataType::kInt32);
  EXPECT_EQ(meta.variable(1).type, DataType::kInt64);
  EXPECT_EQ(meta.variable(2).type, DataType::kFloat32);
  EXPECT_EQ(meta.variable(3).type, DataType::kFloat64);
}

TEST(Cdl, Errors) {
  EXPECT_THROW(parseCdl("time = 365;"), std::invalid_argument);  // no section
  EXPECT_THROW(parseCdl("dimensions:\n time = 365"),  // missing ';'
               std::invalid_argument);
  EXPECT_THROW(parseCdl("dimensions:\n = 365;"), std::invalid_argument);
  EXPECT_THROW(parseCdl("dimensions:\n t = 0;"), std::invalid_argument);
  EXPECT_THROW(parseCdl("variables:\n int v(missing);"),
               std::invalid_argument);
  EXPECT_THROW(parseCdl("variables:\n quux v();"), std::invalid_argument);
  EXPECT_THROW(parseCdl("variables:\n intv(n);"), std::invalid_argument);
}

TEST(Cdl, ScalarVariableWithNoDims) {
  Metadata meta = parseCdl("variables:\n double v();\n");
  EXPECT_TRUE(meta.variable(0).dimIndices.empty());
}

}  // namespace
}  // namespace sidr::sci
