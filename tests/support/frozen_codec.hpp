// A frozen copy of the segment encoder for KeyValue records, as Segment
// wrote the framing from its decoded (KeyValue-backed) form before every
// in-memory segment became packed (DESIGN.md section 11). Production
// segments encode straight from u64 linear keys; the tests compare
// those bytes with what this copy produces from the same records, so
// the packed encoder stays checked against a second implementation. Do
// not optimize it, and do not route it through Segment.
//
// pack/unpack move records between KeyValues and a packed Segment in a
// key space; they are how tests build segments.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "mapreduce/kv.hpp"
#include "mapreduce/segment.hpp"
#include "ndarray/coord.hpp"

namespace sidr::testsupport {

inline void frozenPutU64(std::vector<std::byte>& out, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::byte>((x >> (b * 8)) & 0xff));
  }
}

inline void frozenPutF64(std::vector<std::byte>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  frozenPutU64(out, bits);
}

/// LEB128: 7 payload bits per byte, low bits first.
inline void frozenPutVarint(std::vector<std::byte>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::byte>((x & 0x7f) | 0x80));
    x >>= 7;
  }
  out.push_back(static_cast<std::byte>(x));
}

/// The 32-byte header: map task, keyblock, record count, and the count
/// annotation (the records' represents, summed).
inline void frozenPutHeader(std::vector<std::byte>& out, std::uint32_t mapTask,
                            std::uint32_t keyblock,
                            const std::vector<mr::KeyValue>& records) {
  std::uint64_t represents = 0;
  for (const mr::KeyValue& kv : records) represents += kv.represents;
  frozenPutU64(out, mapTask);
  frozenPutU64(out, keyblock);
  frozenPutU64(out, records.size());
  frozenPutU64(out, represents);
}

/// Range-checked row-major linearization of `key` in `keySpace`.
inline std::uint64_t frozenLinearize(const nd::Coord& key,
                                     const nd::Coord& keySpace) {
  if (key.rank() != keySpace.rank()) {
    throw std::out_of_range("frozenLinearize: key rank mismatch");
  }
  std::uint64_t lin = 0;
  for (std::size_t d = 0; d < keySpace.rank(); ++d) {
    if (key[d] < 0 || key[d] >= keySpace[d]) {
      throw std::out_of_range("frozenLinearize: key outside key space");
    }
    lin = lin * static_cast<std::uint64_t>(keySpace[d]) +
          static_cast<std::uint64_t>(key[d]);
  }
  return lin;
}

/// The segment framing: the header, the key space (varint rank and
/// extents), then per record varint(lin delta), varint(represents), a
/// kind byte and the payload (raw f64 words; varint partial count and
/// list length). Records must be sorted by key.
inline std::vector<std::byte> frozenSerializeCompressed(
    std::uint32_t mapTask, std::uint32_t keyblock,
    const std::vector<mr::KeyValue>& records, const nd::Coord& keySpace) {
  if (keySpace.rank() == 0 || !keySpace.isValidShape()) {
    throw std::invalid_argument(
        "frozenSerializeCompressed: needs a valid non-empty key space");
  }
  std::vector<std::byte> out;
  frozenPutHeader(out, mapTask, keyblock, records);
  frozenPutVarint(out, keySpace.rank());
  for (nd::Index ext : keySpace) {
    frozenPutVarint(out, static_cast<std::uint64_t>(ext));
  }
  std::uint64_t prev = 0;
  bool have = false;
  for (const mr::KeyValue& kv : records) {
    const std::uint64_t lin = frozenLinearize(kv.key, keySpace);
    if (have && lin < prev) {
      throw std::logic_error(
          "frozenSerializeCompressed: records not sorted by linear key");
    }
    frozenPutVarint(out, have ? lin - prev : lin);
    prev = lin;
    have = true;
    frozenPutVarint(out, kv.represents);
    out.push_back(static_cast<std::byte>(kv.value.kind()));
    switch (kv.value.kind()) {
      case mr::ValueKind::kScalar:
        frozenPutF64(out, kv.value.asScalar());
        break;
      case mr::ValueKind::kPartial: {
        const mr::Partial& p = kv.value.asPartial();
        frozenPutF64(out, p.sum);
        frozenPutF64(out, p.min);
        frozenPutF64(out, p.max);
        frozenPutVarint(out, static_cast<std::uint64_t>(p.count));
        break;
      }
      case mr::ValueKind::kList: {
        const std::vector<double>& xs = kv.value.asList();
        frozenPutVarint(out, xs.size());
        for (double x : xs) frozenPutF64(out, x);
        break;
      }
    }
  }
  return out;
}

/// `records`, in their given order, as a segment over `keySpace`.
/// Throws std::out_of_range when a key lies outside it.
inline mr::Segment pack(std::uint32_t mapTask, std::uint32_t keyblock,
                        const std::vector<mr::KeyValue>& records,
                        const nd::Coord& keySpace) {
  std::vector<mr::PackedRecord> packed;
  std::vector<std::vector<double>> lists;
  packed.reserve(records.size());
  for (const mr::KeyValue& kv : records) {
    mr::PackedRecord r;
    r.lin = frozenLinearize(kv.key, keySpace);
    r.represents = kv.represents;
    r.kind = kv.value.kind();
    switch (r.kind) {
      case mr::ValueKind::kScalar:
        r.payload.scalar = kv.value.asScalar();
        break;
      case mr::ValueKind::kPartial:
        r.payload.partial = kv.value.asPartial();
        break;
      case mr::ValueKind::kList:
        r.payload.listIndex = static_cast<std::uint32_t>(lists.size());
        lists.push_back(kv.value.asList());
        break;
    }
    packed.push_back(r);
  }
  return mr::Segment(mapTask, keyblock, std::move(packed), std::move(lists),
                     keySpace);
}

/// The records of `seg` in their current order, keys delinearized in
/// its key space.
inline std::vector<mr::KeyValue> unpack(const mr::Segment& seg) {
  std::vector<mr::KeyValue> records;
  records.reserve(seg.packedRecords().size());
  for (const mr::PackedRecord& r : seg.packedRecords()) {
    mr::KeyValue& kv = records.emplace_back();
    kv.key = nd::delinearize(static_cast<nd::Index>(r.lin), seg.keySpaceShape());
    kv.represents = r.represents;
    switch (r.kind) {
      case mr::ValueKind::kScalar:
        kv.value = mr::Value::scalar(r.payload.scalar);
        break;
      case mr::ValueKind::kPartial:
        kv.value = mr::Value::partial(r.payload.partial);
        break;
      case mr::ValueKind::kList:
        kv.value = mr::Value::list(seg.packedListAt(r.payload.listIndex));
        break;
    }
  }
  return records;
}

}  // namespace sidr::testsupport
