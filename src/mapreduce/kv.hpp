// Key/value model for the structural MapReduce runtime.
//
// Keys are logical coordinates (SciHadoop keeps every dataflow stage in
// coordinate space); values are a small tagged union covering the three
// shapes structural operators need:
//   * kScalar  — a single data point (map input, simple outputs);
//   * kPartial — distributive running aggregate (sum/count/min/max),
//                what mappers ship per cell for mean/sum/min/max queries;
//   * kList    — a list of data points, required by holistic operators
//                (median) and by filter queries whose result per key is
//                "zero or more values" (paper section 2.4.2).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "ndarray/coord.hpp"

namespace sidr::mr {

enum class ValueKind : std::uint8_t { kScalar = 0, kPartial = 1, kList = 2 };

/// Distributive partial aggregate: enough state to finalize sum, count,
/// mean, min and max.
struct Partial {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::int64_t count = 0;

  static Partial ofValue(double v) { return Partial{v, v, v, 1}; }

  void merge(const Partial& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    count += o.count;
  }

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  friend bool operator==(const Partial&, const Partial&) = default;
};

class Value {
 public:
  Value() : kind_(ValueKind::kScalar), scalar_(0.0) {}

  static Value scalar(double v) {
    Value x;
    x.kind_ = ValueKind::kScalar;
    x.scalar_ = v;
    return x;
  }

  static Value partial(Partial p) {
    Value x;
    x.kind_ = ValueKind::kPartial;
    x.partial_ = p;
    return x;
  }

  static Value list(std::vector<double> xs) {
    Value x;
    x.kind_ = ValueKind::kList;
    x.list_ = std::move(xs);
    return x;
  }

  ValueKind kind() const noexcept { return kind_; }

  double asScalar() const {
    requireKind(ValueKind::kScalar);
    return scalar_;
  }

  const Partial& asPartial() const {
    requireKind(ValueKind::kPartial);
    return partial_;
  }

  const std::vector<double>& asList() const {
    requireKind(ValueKind::kList);
    return list_;
  }

  std::vector<double>& mutableList() {
    requireKind(ValueKind::kList);
    return list_;
  }

  friend bool operator==(const Value&, const Value&) = default;

 private:
  void requireKind(ValueKind k) const {
    if (kind_ != k) throw std::logic_error("Value: wrong kind access");
  }

  ValueKind kind_;
  double scalar_ = 0.0;
  Partial partial_;
  std::vector<double> list_;
};

/// One intermediate record. `represents` is the count annotation from
/// paper section 3.2.1 method 2: how many original map-input pairs this
/// record stands for (1 for a raw pair, the cell's pair count for a
/// record the mapper pre-aggregated).
struct KeyValue {
  nd::Coord key;
  Value value;
  std::uint64_t represents = 1;
};

/// One record of the linearized fast path's packed representation
/// (DESIGN.md section 11): the key as its row-major linear index in the
/// job's keySpace, the payload inline for scalar/partial values and as
/// an index into an out-of-line list table for list values. The whole
/// point of this layout is that it is trivially copyable — buffer growth
/// is a memmove instead of a per-element KeyValue move (a KeyValue is
/// ~160 bytes and owns a vector), and sorting permutes 16-byte
/// (lin, index) pairs instead of swapping records.
struct PackedRecord {
  std::uint64_t lin = 0;
  std::uint64_t represents = 1;
  union Payload {
    double scalar;
    Partial partial;
    std::uint32_t listIndex;
    Payload() : scalar(0.0) {}
  } payload;
  ValueKind kind = ValueKind::kScalar;
};
static_assert(std::is_trivially_copyable_v<PackedRecord>);

}  // namespace sidr::mr
