#include "scihadoop/record_reader.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace sidr::sh {

DatasetRecordReader::DatasetRecordReader(std::shared_ptr<sci::Dataset> dataset,
                                         std::size_t varIdx,
                                         const nd::Region& region)
    : dataset_(std::move(dataset)),
      walker_(*dataset_, varIdx, region),
      cursor_(region) {}

bool DatasetRecordReader::next(nd::Coord& key, double& value) {
  if (!cursor_.valid()) return false;
  walker_.read({&value, 1});
  key = cursor_.coord();
  cursor_.next();
  return true;
}

std::size_t DatasetRecordReader::nextRun(nd::Coord& start,
                                         std::span<double> values) {
  if (!cursor_.valid() || values.empty()) return 0;
  const auto run = std::min(values.size(),
                            static_cast<std::size_t>(cursor_.rowRemaining()));
  walker_.read(values.first(run));
  start = cursor_.coord();
  cursor_.advanceInRow(static_cast<nd::Index>(run));
  return run;
}

std::size_t SyntheticRecordReader::nextRun(nd::Coord& start,
                                           std::span<double> values) {
  if (!cursor_.valid() || cursor_.coord().rank() == 0) {
    return RecordReader::nextRun(start, values);
  }
  if (values.empty()) return 0;
  const auto run = std::min(values.size(),
                            static_cast<std::size_t>(cursor_.rowRemaining()));
  start = cursor_.coord();
  nd::Coord key = start;
  const std::size_t last = key.rank() - 1;
  for (std::size_t i = 0; i < run; ++i) {
    key[last] = start[last] + static_cast<nd::Index>(i);
    values[i] = fn_(key);
  }
  cursor_.advanceInRow(static_cast<nd::Index>(run));
  return run;
}

mr::RecordReaderFactory makeDatasetReaderFactory(
    std::shared_ptr<sci::Dataset> dataset, std::size_t varIdx) {
  return [dataset, varIdx](const nd::Region& region) {
    return std::make_unique<DatasetRecordReader>(dataset, varIdx, region);
  };
}

mr::RecordReaderFactory makeSyntheticReaderFactory(ValueFn fn) {
  return [fn](const nd::Region& region) {
    return std::make_unique<SyntheticRecordReader>(fn, region);
  };
}

}  // namespace sidr::sh
