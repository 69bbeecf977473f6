#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "scihadoop/datagen.hpp"
#include "support/frozen_writer.hpp"
#include "support/staged_dataset.hpp"
#include "support/temp_dir.hpp"

namespace sidr::sh {
namespace {

TEST(Datagen, FieldsAreDeterministic) {
  ValueFn a = temperatureField(5);
  ValueFn b = temperatureField(5);
  ValueFn c = temperatureField(6);
  bool anyDiffer = false;
  for (nd::Index i = 0; i < 50; ++i) {
    nd::Coord coord{i, i % 7, i % 11};
    EXPECT_EQ(a(coord), b(coord));
    if (a(coord) != c(coord)) anyDiffer = true;
  }
  EXPECT_TRUE(anyDiffer) << "seeds must change the field";
}

TEST(Datagen, TemperatureFieldPlausibleRange) {
  ValueFn t = temperatureField();
  for (nd::RegionCursor cur(
           nd::Region::wholeSpace(nd::Coord{20, 20, 20}));
       cur.valid(); cur.next()) {
    double v = t(cur.coord());
    EXPECT_GT(v, -40.0);
    EXPECT_LT(v, 60.0);
  }
}

TEST(Datagen, TemperatureFieldHasSeasonalSwing) {
  ValueFn t = temperatureField();
  // Winter (day 0) vs summer (day ~91, peak of the sine) at a fixed
  // location should differ by several degrees.
  double jan = t(nd::Coord{0, 100, 100});
  double apr = t(nd::Coord{91, 100, 100});
  EXPECT_GT(apr - jan, 5.0);
}

TEST(Datagen, WindspeedNonNegativeAndAltitudeTrend) {
  ValueFn w = windspeedField();
  double sumLow = 0;
  double sumHigh = 0;
  for (nd::Index i = 0; i < 200; ++i) {
    nd::Coord low{i, 3, 5, 0};
    nd::Coord high{i, 3, 5, 49};
    EXPECT_GE(w(low), 0.0);
    sumLow += w(low);
    sumHigh += w(high);
  }
  EXPECT_GT(sumHigh, sumLow) << "wind speeds rise with elevation";
}

TEST(Datagen, NormalFieldMoments) {
  ValueFn n = normalField(10.0, 2.0);
  double sum = 0;
  double sumSq = 0;
  const nd::Coord shape{40, 40, 40};
  for (nd::RegionCursor cur(nd::Region::wholeSpace(shape)); cur.valid();
       cur.next()) {
    double v = n(cur.coord());
    sum += v;
    sumSq += v * v;
  }
  auto count = static_cast<double>(shape.volume());
  double mean = sum / count;
  double stddev = std::sqrt(sumSq / count - mean * mean);
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(stddev, 2.0, 0.05);
}

TEST(Datagen, NormalFieldTailProbability) {
  // The Query 2 premise: ~0.135% of values exceed 3 sigma.
  ValueFn n = normalField(0.0, 1.0);
  std::int64_t above = 0;
  const nd::Coord shape{60, 60, 60};
  for (nd::RegionCursor cur(nd::Region::wholeSpace(shape)); cur.valid();
       cur.next()) {
    if (n(cur.coord()) > 3.0) ++above;
  }
  double frac = static_cast<double>(above) /
                static_cast<double>(shape.volume());
  EXPECT_GT(frac, 0.0005);
  EXPECT_LT(frac, 0.0035);
}

TEST(Datagen, TemperatureMetadataMatchesFigure1) {
  sci::Metadata meta = temperatureMetadata();
  EXPECT_EQ(meta.dimensions().size(), 3u);
  EXPECT_EQ(meta.variableShape(0), (nd::Coord{365, 250, 200}));
  EXPECT_EQ(meta.variable(0).name, "temperature");
  EXPECT_EQ(meta.variable(0).type, sci::DataType::kInt32);
}

TEST(Datagen, MakeMemoryDatasetRoundTrip) {
  ValueFn fn = [](const nd::Coord& c) {
    return static_cast<double>(c[0] * 10 + c[1]);
  };
  auto ds = makeMemoryDataset("v", sci::DataType::kFloat64,
                              nd::Coord{5, 4}, fn);
  auto values =
      ds->readRegion(0, nd::Region::wholeSpace(nd::Coord{5, 4}));
  std::size_t i = 0;
  for (nd::RegionCursor cur(nd::Region::wholeSpace(nd::Coord{5, 4}));
       cur.valid(); cur.next()) {
    EXPECT_EQ(values[i++], fn(cur.coord()));
  }
}

TEST(Datagen, FillDatasetMatchesWritingTheMaterializedVariable) {
  // fillDataset streams the generator through bounded batches; its file
  // must be byte-identical to writing the whole materialized variable,
  // with writeRegion and with the frozen row-at-a-time writer. The
  // variable spans several staging buffers and batches.
  for (const sci::DataType type : testsupport::kAllDataTypes) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(type)));
    testsupport::TempDir dir;
    const std::size_t stagingElems =
        sci::RegionRuns::kStagingBytes / sci::dataTypeSize(type);
    const nd::Coord shape{3, static_cast<nd::Index>(stagingElems / 25 + 3),
                          25};
    const ValueFn fn = temperatureField(11);
    auto create = [&](const std::string& name) {
      return sci::Dataset::create(
          std::make_shared<sci::FileStorage>(
              dir.file(name), sci::FileStorage::Mode::kCreate),
          arrayMetadata("v", type, shape));
    };
    sci::Dataset streamed = create("streamed.sndf");
    fillDataset(streamed, 0, fn);

    const nd::Region whole = nd::Region::wholeSpace(shape);
    std::vector<double> values;
    for (nd::RegionCursor cur(whole); cur.valid(); cur.next()) {
      values.push_back(fn(cur.coord()));
    }
    sci::Dataset written = create("written.sndf");
    written.writeRegion(0, whole, values);
    sci::Dataset frozen = create("frozen.sndf");
    testsupport::frozenWriteRegion(frozen, 0, whole, values);

    const std::vector<char> want =
        testsupport::fileBytes(dir.file("frozen.sndf"));
    EXPECT_TRUE(testsupport::fileBytes(dir.file("streamed.sndf")) == want);
    EXPECT_TRUE(testsupport::fileBytes(dir.file("written.sndf")) == want);
  }
}

TEST(Datagen, ArrayMetadataShapes) {
  sci::Metadata meta =
      arrayMetadata("wind", sci::DataType::kFloat32, nd::Coord{7, 8, 9});
  EXPECT_EQ(meta.variableShape(0), (nd::Coord{7, 8, 9}));
  EXPECT_EQ(meta.dimensions()[1].name, "dim1");
}

}  // namespace
}  // namespace sidr::sh
