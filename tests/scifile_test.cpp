#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "scifile/cdl.hpp"
#include "scifile/dataset.hpp"
#include "scifile/output_writers.hpp"
#include "support/staged_dataset.hpp"
#include "support/temp_dir.hpp"

namespace sidr::sci {
namespace {

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
    ASSERT_NE((RegionWalker::kStagingBytes / dataTypeSize(type)) % 25, 0u);
    for (const nd::Region& region : file.regions()) {
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)) +
                   ", region " + region.toString());
      ASSERT_GT(static_cast<std::uint64_t>(region.volume()) *
                    dataTypeSize(type),
                2 * RegionWalker::kStagingBytes);
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
