#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>

#include "mapreduce/partitioners.hpp"
#include "mapreduce/segment.hpp"
#include "scifile/storage.hpp"
#include "support/frozen_codec.hpp"

namespace sidr::mr {
namespace {

TEST(Partial, MergeTracksAllAggregates) {
  Partial p = Partial::ofValue(3.0);
  p.merge(Partial::ofValue(-1.0));
  p.merge(Partial::ofValue(10.0));
  EXPECT_EQ(p.sum, 12.0);
  EXPECT_EQ(p.min, -1.0);
  EXPECT_EQ(p.max, 10.0);
  EXPECT_EQ(p.count, 3);
  EXPECT_DOUBLE_EQ(p.mean(), 4.0);
}

TEST(Partial, MergeWithEmpty) {
  Partial empty;
  Partial p = Partial::ofValue(5.0);
  empty.merge(p);
  EXPECT_EQ(empty, p);
  Partial q = Partial::ofValue(7.0);
  q.merge(Partial{});
  EXPECT_EQ(q.count, 1);
  EXPECT_EQ(q.sum, 7.0);
}

TEST(Value, KindAccessors) {
  Value s = Value::scalar(2.5);
  EXPECT_EQ(s.kind(), ValueKind::kScalar);
  EXPECT_EQ(s.asScalar(), 2.5);
  EXPECT_THROW(s.asList(), std::logic_error);

  Value l = Value::list({1.0, 2.0});
  EXPECT_EQ(l.kind(), ValueKind::kList);
  EXPECT_EQ(l.asList().size(), 2u);
  EXPECT_THROW(l.asPartial(), std::logic_error);

  Value p = Value::partial(Partial::ofValue(1.0));
  EXPECT_EQ(p.kind(), ValueKind::kPartial);
  EXPECT_EQ(p.asPartial().count, 1);
  EXPECT_THROW(p.asScalar(), std::logic_error);
}

std::vector<KeyValue> sampleRecords() {
  return {
      {nd::Coord{2, 1}, Value::scalar(5.0), 1},
      {nd::Coord{0, 3}, Value::partial(Partial::ofValue(2.0)), 4},
      {nd::Coord{1, 0}, Value::list({3.0, 1.0, 2.0}), 3},
      {nd::Coord{0, 1}, Value::list({}), 2},
  };
}

/// Stable Coord-order sort: the order a sorted segment holds.
std::vector<KeyValue> sortedByKey(std::vector<KeyValue> records) {
  std::stable_sort(
      records.begin(), records.end(),
      [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
  return records;
}

/// Field-wise record equality (KeyValue has no operator==).
void expectSameRecords(const std::vector<KeyValue>& got,
                       const std::vector<KeyValue>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "at " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "at " << i;
    EXPECT_EQ(got[i].represents, want[i].represents) << "at " << i;
  }
}

const nd::Coord kSampleSpace{3, 4};  // bounds every sampleRecords() key

TEST(Segment, HeaderAnnotationsSumRepresents) {
  Segment seg = testsupport::pack(7, 3, sampleRecords(), kSampleSpace);
  EXPECT_EQ(seg.header().mapTask, 7u);
  EXPECT_EQ(seg.header().keyblock, 3u);
  EXPECT_EQ(seg.header().numRecords, 4u);
  EXPECT_EQ(seg.header().represents, 1u + 4u + 3u + 2u);
}

TEST(Segment, SortByKey) {
  Segment seg = testsupport::pack(0, 0, sampleRecords(), kSampleSpace);
  EXPECT_FALSE(seg.isSorted());
  seg.sortByKey();
  EXPECT_TRUE(seg.isSorted());
  const std::vector<KeyValue> records = testsupport::unpack(seg);
  EXPECT_EQ(records.front().key, (nd::Coord{0, 1}));
  EXPECT_EQ(records.back().key, (nd::Coord{2, 1}));
}

TEST(Segment, SerializeRoundTrip) {
  Segment seg = testsupport::pack(9, 2, sampleRecords(), kSampleSpace);
  seg.sortByKey();
  auto bytes = seg.serialize();
  EXPECT_EQ(bytes, testsupport::frozenSerializeCompressed(
                       9, 2, sortedByKey(sampleRecords()), kSampleSpace));
  Segment back = Segment::deserialize(bytes);
  EXPECT_EQ(back.header(), seg.header());
  EXPECT_EQ(back.keySpaceShape(), kSampleSpace)
      << "the key space the encoding carries";
  expectSameRecords(testsupport::unpack(back), testsupport::unpack(seg));
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(Segment, DeserializeKeepsTheEncodedKeySpace) {
  // The framing carries its key space, so decoding never narrows it to
  // what the keys happen to use, and a record-less segment keeps it.
  const nd::Coord wide{8, 8};
  Segment inner = testsupport::pack(0, 0,
                                    {{nd::Coord{0, 1}, Value::scalar(1.0), 1},
                                     {nd::Coord{1, 1}, Value::scalar(2.0), 1}},
                                    wide);
  EXPECT_EQ(Segment::deserialize(inner.serialize()).keySpaceShape(), wide)
      << "keys inside {2, 2} of an {8, 8} segment";
  Segment empty = testsupport::pack(3, 1, {}, wide);
  const Segment back = Segment::deserialize(empty.serialize());
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.keySpaceShape(), wide) << "a record-less segment";
}

TEST(Segment, PeekHeaderWithoutParsingRecords) {
  // Section 3.2.1: reduces tally annotations "without having to read
  // and parse those files" — the header must be readable standalone.
  Segment seg = testsupport::pack(4, 1, sampleRecords(), kSampleSpace);
  seg.sortByKey();
  auto bytes = seg.serialize();
  SegmentHeader h = Segment::peekHeader(bytes);
  EXPECT_EQ(h, seg.header());
  // Header parse also works on a truncated buffer holding only 32 bytes.
  std::vector<std::byte> headOnly(bytes.begin(), bytes.begin() + 32);
  EXPECT_EQ(Segment::peekHeader(headOnly), seg.header());
}

/// sampleRecords() sorted, as a segment over kSampleSpace.
Segment sortedSample() {
  return testsupport::pack(0, 0, sortedByKey(sampleRecords()), kSampleSpace);
}

/// `bytes`, an encoding over `encodedIn`, with its embedded key space
/// (the varints right after the 32-byte header) replaced by `rank` and
/// `extents` as given: how a test forges a corrupt key space, or one
/// that some encoded key lies past.
std::vector<std::byte> withKeySpace(std::span<const std::byte> bytes,
                                    const nd::Coord& encodedIn,
                                    std::uint64_t rank,
                                    const std::vector<std::uint64_t>& extents) {
  std::vector<std::byte> old;
  testsupport::frozenPutVarint(old, encodedIn.rank());
  for (nd::Index e : encodedIn) {
    testsupport::frozenPutVarint(old, static_cast<std::uint64_t>(e));
  }
  std::vector<std::byte> out(bytes.begin(),
                             bytes.begin() + Segment::kHeaderBytes);
  testsupport::frozenPutVarint(out, rank);
  for (std::uint64_t e : extents) testsupport::frozenPutVarint(out, e);
  out.insert(out.end(),
             bytes.begin() + static_cast<long>(Segment::kHeaderBytes +
                                               old.size()),
             bytes.end());
  return out;
}

TEST(Segment, DeserializeRejectsTruncation) {
  auto bytes = sortedSample().serialize();
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(Segment::deserialize(bytes), std::out_of_range);
}

TEST(Segment, SerializedSizeIsExact) {
  const std::vector<std::pair<std::vector<KeyValue>, nd::Coord>> cases{
      {sortedByKey(sampleRecords()), kSampleSpace},
      {{}, nd::Coord{1}},
      {{{nd::Coord{0}, Value::scalar(1.0), 1}}, nd::Coord{1}},
  };
  for (const auto& [records, space] : cases) {
    Segment seg = testsupport::pack(1, 2, records, space);
    EXPECT_EQ(seg.serializedSize(), seg.serialize().size());
    EXPECT_EQ(seg.serialize(),
              testsupport::frozenSerializeCompressed(1, 2, records, space));
  }
  // Deltas must be non-negative, and an encoding needs a key space.
  EXPECT_THROW(testsupport::pack(0, 0, sampleRecords(), kSampleSpace)
                   .serializedSize(),
               std::logic_error);
  EXPECT_THROW(Segment().serialize(), std::invalid_argument);
}

TEST(Segment, DeserializeRejectsEveryTruncationPoint) {
  // Cutting the encoding anywhere must throw — never crash, never
  // succeed with partial data.
  Segment seg = testsupport::pack(3, 1, sortedByKey(sampleRecords()),
                                  kSampleSpace);
  auto bytes = seg.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::byte> prefix(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(Segment::deserialize(prefix), std::exception)
        << "prefix length " << cut;
  }
}

TEST(Segment, DeserializeRejectsCorruptRecordCount) {
  // A corrupt header claiming a huge record count must be rejected by
  // comparing against the remaining byte count, BEFORE any reserve.
  auto bytes = sortedSample().serialize();
  auto writeU64At = [&](std::size_t off, std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      bytes[off + static_cast<std::size_t>(b)] =
          static_cast<std::byte>((x >> (b * 8)) & 0xff);
    }
  };
  writeU64At(16, std::uint64_t{1} << 60);  // numRecords word
  EXPECT_THROW(Segment::deserialize(bytes), std::out_of_range);
}

TEST(Segment, DeserializeRejectsCorruptListLength) {
  Segment seg = testsupport::pack(
      0, 0, {{nd::Coord{1}, Value::list({1.0, 2.0}), 1}}, nd::Coord{2});
  auto bytes = seg.serialize();
  // Layout: header (32) + rank (1) + extent (1) + delta (1) +
  // represents (1) + kind (1) = 37 bytes before the list length varint.
  ASSERT_EQ(bytes[37], std::byte{2});
  std::vector<std::byte> huge;
  testsupport::frozenPutVarint(huge, std::uint64_t{1} << 60);
  bytes.erase(bytes.begin() + 37);
  bytes.insert(bytes.begin() + 37, huge.begin(), huge.end());
  EXPECT_THROW(Segment::deserialize(bytes), std::out_of_range);
}

TEST(Segment, DeserializeRejectsCorruptRank) {
  const nd::Coord space{2};
  Segment seg = testsupport::pack(
      0, 0, {{nd::Coord{1}, Value::scalar(2.0), 1}}, space);
  const auto bytes = seg.serialize();
  // The embedded key space's rank: beyond kMaxRank, or none at all.
  EXPECT_THROW(Segment::deserialize(withKeySpace(bytes, space, 9, {})),
               std::runtime_error);
  EXPECT_THROW(Segment::deserialize(withKeySpace(bytes, space, 0, {})),
               std::runtime_error);
}

TEST(Segment, DeserializeRejectsTrailingBytes) {
  auto bytes = sortedSample().serialize();
  bytes.push_back(std::byte{0});
  EXPECT_THROW(Segment::deserialize(bytes), std::runtime_error);
}

TEST(Segment, DeserializeRejectsKeysNoKeySpaceHolds) {
  // An embedded key space no key can be linearized in — an empty
  // extent, or a volume past int64 — is corrupt, whatever the records.
  const nd::Coord space{2, 2};
  const auto bytes = testsupport::pack(
      0, 0, {{nd::Coord{1, 1}, Value::scalar(1.0), 1}}, space).serialize();
  const std::uint64_t big = std::uint64_t{1} << 32;
  const std::uint64_t beyondInt64 = std::uint64_t{1} << 63;
  EXPECT_THROW(Segment::deserialize(withKeySpace(bytes, space, 2, {2, 0})),
               std::runtime_error);
  EXPECT_THROW(Segment::deserialize(withKeySpace(bytes, space, 2, {big, big})),
               std::runtime_error);
  EXPECT_THROW(
      Segment::deserialize(withKeySpace(bytes, space, 1, {beyondInt64})),
      std::runtime_error);
  // The same holds for a segment without records.
  const auto empty = testsupport::pack(0, 0, {}, space).serialize();
  EXPECT_THROW(Segment::deserialize(withKeySpace(empty, space, 2, {0, 2})),
               std::runtime_error);
}

TEST(Segment, DecodeRejectsKeysOutsideTheKeySpace) {
  // deserialize linearizes nothing: a delta that runs past the volume
  // of the embedded key space fails the decode — never a later merge.
  const nd::Coord wide{8, 8};
  const auto forged = [&](const std::vector<KeyValue>& records) {
    return withKeySpace(
        testsupport::pack(0, 0, records, wide).serialize(), wide, 2, {4, 4});
  };
  EXPECT_THROW(
      Segment::deserialize(forged({{nd::Coord{2, 0}, Value::scalar(1.0), 1}})),
      std::out_of_range)
      << "the first key";
  EXPECT_THROW(
      Segment::deserialize(forged({{nd::Coord{1, 1}, Value::scalar(1.0), 1},
                                   {nd::Coord{2, 1}, Value::scalar(1.0), 1}})),
      std::out_of_range)
      << "a later key";
  // A delta that would wrap the u64 key around.
  auto wrap = testsupport::pack(0, 0,
                                {{nd::Coord{0, 1}, Value::scalar(1.0), 1},
                                 {nd::Coord{0, 2}, Value::scalar(1.0), 1}},
                                wide)
                  .serialize();
  std::vector<std::byte> maxDelta;
  testsupport::frozenPutVarint(maxDelta, ~std::uint64_t{0});
  // header (32) + key space (3) + first record (1 + 1 + 1 + 8) = 46.
  ASSERT_EQ(wrap[46], std::byte{1});
  wrap.erase(wrap.begin() + 46);
  wrap.insert(wrap.begin() + 46, maxDelta.begin(), maxDelta.end());
  EXPECT_THROW(Segment::deserialize(wrap), std::out_of_range);

  const Segment ok = Segment::deserialize(
      forged({{nd::Coord{1, 7}, Value::scalar(1.0), 1}}));  // lin 15
  EXPECT_EQ(ok.keySpaceShape(), (nd::Coord{4, 4}));
  EXPECT_EQ(ok.packedRecords()[0].lin, 15u);
}

TEST(Segment, RoundTripPropertyAllValueKinds) {
  // Randomized sweep over every ValueKind, ranks 1..4, random key
  // spaces and empty segments, encoded by the frozen KeyValue encoder:
  // every encoding decodes to its records and key space and re-encodes
  // to the same bytes.
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t rank = 1 + rng() % 4;
    nd::Coord space = nd::Coord::zeros(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      space[d] = static_cast<nd::Index>(1 + rng() % 1000);
    }
    const std::size_t count = trial == 0 ? 0 : rng() % 40;
    std::vector<KeyValue> records;
    for (std::size_t i = 0; i < count; ++i) {
      KeyValue kv;
      nd::Coord key = nd::Coord::zeros(rank);
      for (std::size_t d = 0; d < rank; ++d) {
        key[d] = static_cast<nd::Index>(rng() %
                                        static_cast<std::uint64_t>(space[d]));
      }
      kv.key = key;
      kv.represents = rng() % 1000;
      switch (rng() % 3) {
        case 0:
          kv.value = Value::scalar(static_cast<double>(rng() % 997) / 13.0);
          break;
        case 1: {
          Partial p;
          p.sum = static_cast<double>(rng() % 997) / 7.0;
          p.min = -p.sum;
          p.max = p.sum * 2;
          p.count = static_cast<std::int64_t>(rng() % 100);
          kv.value = Value::partial(p);
          break;
        }
        default: {
          std::vector<double> xs(rng() % 9);  // includes empty lists
          for (auto& x : xs) x = static_cast<double>(rng() % 997) / 3.0;
          kv.value = Value::list(std::move(xs));
          break;
        }
      }
      records.push_back(std::move(kv));
    }
    records = sortedByKey(std::move(records));
    const auto mapTask = static_cast<std::uint32_t>(rng() % 64);
    const auto keyblock = static_cast<std::uint32_t>(rng() % 16);
    const std::vector<std::byte> bytes = testsupport::frozenSerializeCompressed(
        mapTask, keyblock, records, space);
    SCOPED_TRACE("trial " + std::to_string(trial));
    Segment back = Segment::deserialize(bytes);
    EXPECT_EQ(back.header(), Segment::peekHeader(bytes));
    EXPECT_EQ(back.keySpaceShape(), space);
    ASSERT_EQ(back.serializedSize(), bytes.size());
    EXPECT_EQ(back.serialize(), bytes);
    expectSameRecords(testsupport::unpack(back), records);
  }
}

TEST(Segment, EmptySegment) {
  Segment seg = testsupport::pack(1, 2, {}, nd::Coord{1});
  EXPECT_TRUE(seg.empty());
  EXPECT_EQ(seg.header().represents, 0u);
  Segment back = Segment::deserialize(seg.serialize());
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.header(), seg.header());
  EXPECT_EQ(back.keySpaceShape(), (nd::Coord{1}));
  EXPECT_EQ(back.serialize(), seg.serialize());
}

std::unique_ptr<sci::Storage> memoryStorageOf(
    std::span<const std::byte> bytes) {
  auto storage = std::make_unique<sci::MemoryStorage>();
  storage->writeAt(0, bytes);
  return storage;
}

TEST(SegmentMerger, GroupsAcrossSegments) {
  // One segment input, one streamed: both cursor kinds in one heap.
  const nd::Coord keySpace{4};
  Segment a = testsupport::pack(0, 0,
                                {{nd::Coord{1}, Value::scalar(1.0), 1},
                                 {nd::Coord{3}, Value::scalar(3.0), 1}},
                                keySpace);
  const std::vector<std::byte> b = testsupport::frozenSerializeCompressed(
      1, 0,
      {{nd::Coord{1}, Value::scalar(10.0), 2},
       {nd::Coord{2}, Value::scalar(2.0), 1}},
      keySpace);
  SegmentStream streamB(memoryStorageOf(b), 64);
  const SegmentMerger::Input inputs[] = {{&a, nullptr}, {nullptr, &streamB}};
  SegmentMerger merger(inputs, keySpace);
  std::vector<std::pair<nd::Coord, std::size_t>> groups;
  std::vector<std::uint64_t> reps;
  merger.forEachGroup([&](const nd::Coord& key,
                          std::span<const Value* const> values,
                          std::uint64_t represents) {
    groups.emplace_back(key, values.size());
    reps.push_back(represents);
  });
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], std::make_pair(nd::Coord{1}, std::size_t{2}));
  EXPECT_EQ(groups[1], std::make_pair(nd::Coord{2}, std::size_t{1}));
  EXPECT_EQ(groups[2], std::make_pair(nd::Coord{3}, std::size_t{1}));
  EXPECT_EQ(reps, (std::vector<std::uint64_t>{3, 1, 1}));
}

TEST(SegmentMerger, PackedListsReachTheReducerInPlace) {
  // A packed list is handed over as the segment's own value, not as a
  // per-record copy: every list the reducer sees points at the data of
  // one of the inputs' side-table lists.
  const nd::Coord keySpace{6};
  Segment a = testsupport::pack(0, 0,
                                {{nd::Coord{1}, Value::list({1.0, 2.0}), 1},
                                 {nd::Coord{3}, Value::list({3.0}), 1},
                                 {nd::Coord{4}, Value::scalar(4.0), 1}},
                                keySpace);
  Segment b = testsupport::pack(1, 0,
                                {{nd::Coord{1}, Value::list({5.0, 6.0, 7.0}), 2},
                                 {nd::Coord{5}, Value::list({8.0}), 1}},
                                keySpace);
  std::set<const double*> own;
  for (std::uint32_t i = 0; i < 2; ++i) {
    own.insert(a.packedListAt(i).data());
    own.insert(b.packedListAt(i).data());
  }
  ASSERT_EQ(own.size(), 4u);

  std::vector<const Segment*> segs{&a, &b};
  SegmentMerger merger(segs, keySpace);
  std::size_t lists = 0;
  double sum = 0.0;
  merger.forEachGroup([&](const nd::Coord&,
                          std::span<const Value* const> values,
                          std::uint64_t) {
    for (const Value* v : values) {
      if (v->kind() != ValueKind::kList) {
        sum += v->asScalar();
        continue;
      }
      ++lists;
      EXPECT_EQ(own.count(v->asList().data()), 1u)
          << "a packed list reached the reducer as a copy";
      for (double x : v->asList()) sum += x;
    }
  });
  EXPECT_EQ(lists, 4u);
  EXPECT_EQ(sum, 36.0);
}

TEST(SegmentMerger, ManySegmentsStaySorted) {
  std::vector<Segment> segs;
  for (std::uint32_t m = 0; m < 10; ++m) {
    std::vector<KeyValue> recs;
    for (nd::Index k = 0; k < 20; ++k) {
      recs.push_back({nd::Coord{(k * 7 + m) % 40}, Value::scalar(1.0), 1});
    }
    // Alternate map output sorted in place and fetched payloads decoded
    // from the wire.
    if (m % 2 == 0) {
      Segment s = testsupport::pack(m, 0, recs, nd::Coord{40});
      s.sortByKey();
      segs.push_back(std::move(s));
    } else {
      segs.push_back(Segment::deserialize(testsupport::frozenSerializeCompressed(
          m, 0, sortedByKey(std::move(recs)), nd::Coord{40})));
    }
  }
  std::vector<const Segment*> ptrs;
  for (const auto& s : segs) ptrs.push_back(&s);
  SegmentMerger merger(ptrs, nd::Coord{40});
  nd::Coord prev;
  bool first = true;
  std::size_t total = 0;
  merger.forEachGroup([&](const nd::Coord& key,
                          std::span<const Value* const> values,
                          std::uint64_t) {
    if (!first) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    first = false;
    total += values.size();
  });
  EXPECT_EQ(total, 200u);
}

TEST(SegmentMerger, EmptyInput) {
  SegmentMerger merger(std::span<const Segment* const>{}, nd::Coord{1});
  int calls = 0;
  merger.forEachGroup([&](auto&&...) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(SegmentMerger, RejectsDecodedKeyOutsideKeySpace) {
  // A streamed record past its key space must fail the merge, whether
  // it is a cursor's first record (construction) or a later one
  // (iteration); a stream in another key space never joins it.
  const nd::Coord keySpace{4};
  const auto streamOf = [&](const std::vector<KeyValue>& records) {
    // Encoded over {8}, then claiming {4}: keys from 4 on lie past it.
    const nd::Coord wide{8};
    return std::make_unique<SegmentStream>(
        memoryStorageOf(withKeySpace(
            testsupport::frozenSerializeCompressed(0, 0, records, wide), wide,
            1, {4})),
        64);
  };
  const auto mergeOf = [&](SegmentStream& stream) {
    const SegmentMerger::Input in[] = {{nullptr, &stream}};
    return SegmentMerger(in, keySpace);
  };
  EXPECT_THROW(mergeOf(*streamOf({{nd::Coord{4}, Value::scalar(1.0), 1}})),
               std::out_of_range);

  auto later = streamOf({{nd::Coord{1}, Value::scalar(1.0), 1},
                         {nd::Coord{7}, Value::scalar(2.0), 1}});
  SegmentMerger merger = mergeOf(*later);
  EXPECT_THROW(merger.forEachGroup([](auto&&...) {}), std::out_of_range);

  SegmentStream otherRank(
      memoryStorageOf(testsupport::frozenSerializeCompressed(
          0, 0, {{nd::Coord{1, 1}, Value::scalar(1.0), 1}}, nd::Coord{4, 4})),
      64);
  EXPECT_THROW(mergeOf(otherRank), std::invalid_argument);
}

TEST(SegmentMerger, RejectsPackedInputFromAnotherKeySpace) {
  // Linear keys are only comparable within the space they were
  // linearized in: lin 5 is {1, 1} in {4, 4} but {1, 0} in {4, 5}.
  Segment packed = testsupport::pack(
      0, 0, {{nd::Coord{1, 1}, Value::scalar(1.0), 1}}, nd::Coord{4, 4});
  std::vector<const Segment*> inputs{&packed};
  EXPECT_THROW(SegmentMerger(inputs, nd::Coord{4, 5}), std::invalid_argument);
  EXPECT_THROW(SegmentMerger(inputs, nd::Coord()), std::invalid_argument);
  EXPECT_NO_THROW(SegmentMerger(inputs, nd::Coord{4, 4}));

  SegmentStream stream(memoryStorageOf(packed.serialize()), 64);
  const SegmentMerger::Input streamed[] = {{nullptr, &stream}};
  EXPECT_THROW(SegmentMerger(streamed, nd::Coord{4, 5}),
               std::invalid_argument);
}

TEST(ModuloPartitioner, LinearIndexModulo) {
  ModuloPartitioner part(nd::Coord{10, 10});
  EXPECT_EQ(part.partition(nd::Coord{0, 0}, 4), 0u);
  EXPECT_EQ(part.partition(nd::Coord{0, 5}, 4), 1u);
  EXPECT_EQ(part.partition(nd::Coord{2, 3}, 4), 23u % 4);
}

TEST(ModuloPartitioner, EvenKeysSkewToEvenReducers) {
  // The paper's section 4.3 pathology: patterned (all-even) keys starve
  // odd-numbered reduce tasks under modulo partitioning.
  ModuloPartitioner part(nd::Coord{16, 16});
  std::vector<int> counts(4, 0);
  for (nd::Index i = 0; i < 16; i += 2) {
    for (nd::Index j = 0; j < 16; j += 2) {
      ++counts[part.partition(nd::Coord{i, j}, 4)];
    }
  }
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[2], 0);
  EXPECT_EQ(counts[1], 0);  // odd reducers receive nothing
  EXPECT_EQ(counts[3], 0);
}

TEST(HashPartitioner, BreaksKeyPatterns) {
  HashPartitioner part;
  std::vector<int> counts(4, 0);
  for (nd::Index i = 0; i < 16; i += 2) {
    for (nd::Index j = 0; j < 16; j += 2) {
      ++counts[part.partition(nd::Coord{i, j}, 4)];
    }
  }
  for (int c : counts) EXPECT_GT(c, 0) << "hash must spread patterned keys";
}

// ---- streaming decoder ----

/// Random records, sorted by key, whose keys all lie inside `keySpace`,
/// covering every value kind (lists include empty and window-busting
/// big ones).
std::vector<KeyValue> randomSortedRecords(std::mt19937_64& rng,
                                          const nd::Coord& keySpace,
                                          std::size_t count) {
  nd::Index space = 1;
  for (std::size_t d = 0; d < keySpace.rank(); ++d) space *= keySpace[d];
  std::vector<KeyValue> records;
  for (std::size_t i = 0; i < count; ++i) {
    KeyValue kv;
    kv.key = nd::delinearize(static_cast<nd::Index>(
                                 rng() % static_cast<std::uint64_t>(space)),
                             keySpace);
    kv.represents = rng() % 1000;
    switch (rng() % 4) {
      case 0:
        kv.value = Value::scalar(static_cast<double>(rng() % 997) / 13.0);
        break;
      case 1: {
        Partial p;
        p.sum = static_cast<double>(rng() % 997) / 7.0;
        p.min = -p.sum;
        p.max = p.sum * 2;
        p.count = static_cast<std::int64_t>(rng() % 100);
        kv.value = Value::partial(p);
        break;
      }
      case 2: {
        std::vector<double> xs(rng() % 9);  // includes empty lists
        for (auto& x : xs) x = static_cast<double>(rng() % 997) / 3.0;
        kv.value = Value::list(std::move(xs));
        break;
      }
      default: {
        // Bigger than the smallest test window, so the stream's
        // grow-for-one-record path is exercised.
        std::vector<double> xs(40 + rng() % 30);
        for (auto& x : xs) x = static_cast<double>(rng() % 997);
        kv.value = Value::list(std::move(xs));
        break;
      }
    }
    records.push_back(std::move(kv));
  }
  return sortedByKey(std::move(records));
}

/// Drains `stream`, checking it yields exactly `want`, keys linearized
/// in the stream's key space.
void expectStreamMatches(SegmentStream& stream,
                         const std::vector<KeyValue>& want) {
  for (const KeyValue& kv : want) {
    ASSERT_FALSE(stream.exhausted());
    EXPECT_EQ(stream.lin(),
              testsupport::frozenLinearize(kv.key, stream.keySpace()));
    EXPECT_EQ(stream.value(), kv.value);
    EXPECT_EQ(stream.represents(), kv.represents);
    stream.advance();
  }
  EXPECT_TRUE(stream.exhausted());
}

TEST(SegmentStream, WindowedDecodeMatchesDeserialize) {
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(99);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{80}}) {
    const std::vector<KeyValue> records =
        randomSortedRecords(rng, keySpace, count);
    Segment seg = testsupport::pack(1, 0, records, keySpace);
    auto bytes = seg.serialize();
    EXPECT_EQ(bytes,
              testsupport::frozenSerializeCompressed(1, 0, records, keySpace));
    expectSameRecords(testsupport::unpack(Segment::deserialize(bytes)),
                      records);
    // Windows below one record, around a few records, and way past the
    // whole encoding must all decode identically.
    for (std::size_t window : {std::size_t{64}, std::size_t{4096},
                               std::size_t{1} << 20}) {
      SegmentStream stream(memoryStorageOf(bytes), window);
      EXPECT_EQ(stream.header(), seg.header());
      EXPECT_EQ(stream.keySpace(), keySpace);
      expectStreamMatches(stream, records);
      EXPECT_EQ(stream.bytesRead(), bytes.size());
      if (window == 64 && count == 80) {
        EXPECT_LT(stream.peakWindowBytes(), bytes.size())
            << "a small window must never buffer the whole file";
      }
    }
    EXPECT_THROW(SegmentStream(memoryStorageOf(bytes), 0),
                 std::invalid_argument);
  }
}

TEST(SegmentStream, CompressedRoundTripMatches) {
  // Stream and whole-payload decode agree on the one framing, and both
  // report the key space it carries.
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(7);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{80}}) {
    const std::vector<KeyValue> records =
        randomSortedRecords(rng, keySpace, count);
    Segment seg = testsupport::pack(1, 0, records, keySpace);
    auto bytes = seg.serialize();
    ASSERT_EQ(bytes.size(), seg.serializedSize());
    EXPECT_EQ(Segment::peekHeader(bytes), seg.header())
        << "the framing starts with the raw header (annotation peek)";
    for (std::size_t window : {std::size_t{64}, std::size_t{1} << 20}) {
      SegmentStream stream(memoryStorageOf(bytes), window);
      expectStreamMatches(stream, records);
    }
    Segment back = Segment::deserialize(bytes);
    EXPECT_EQ(back.header(), seg.header());
    EXPECT_EQ(back.keySpaceShape(), keySpace);
    expectSameRecords(testsupport::unpack(back), records);
    EXPECT_EQ(back.serialize(), bytes);
  }
}

TEST(SegmentStream, CompressedPackedEncodeMatchesMaterialized) {
  // The packed-direct encoder must emit byte-identical output to the
  // frozen encoder over the materialized view of the same records.
  const nd::Coord keySpace{4, 5};
  std::vector<PackedRecord> packed;
  std::vector<std::vector<double>> lists;
  auto addPacked = [&](std::uint64_t lin, Value v, std::uint64_t rep) {
    PackedRecord r;
    r.lin = lin;
    r.represents = rep;
    r.kind = v.kind();
    switch (v.kind()) {
      case ValueKind::kScalar:
        r.payload.scalar = v.asScalar();
        break;
      case ValueKind::kPartial:
        r.payload.partial = v.asPartial();
        break;
      case ValueKind::kList:
        r.payload.listIndex = static_cast<std::uint32_t>(lists.size());
        lists.push_back(v.asList());
        break;
    }
    packed.push_back(r);
  };
  addPacked(0, Value::scalar(1.0), 2);
  addPacked(1, Value::list({5.0, 6.0}), 1);  // dense run 0,1,2
  addPacked(2, Value::partial(Partial::ofValue(3.0)), 4);
  addPacked(7, Value::list({}), 9);
  addPacked(19, Value::scalar(-2.5), 1);
  Segment seg(0, 0, std::move(packed), std::move(lists), keySpace);
  const std::vector<KeyValue> materialized = testsupport::unpack(seg);
  EXPECT_EQ(seg.serialize(),
            testsupport::frozenSerializeCompressed(0, 0, materialized,
                                                   keySpace));
}

TEST(SegmentStream, RejectsEveryTruncationPoint) {
  const nd::Coord keySpace{6, 7, 8};
  std::mt19937_64 rng(31);
  Segment seg = testsupport::pack(1, 0, randomSortedRecords(rng, keySpace, 12),
                                  keySpace);
  auto bytes = seg.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::byte> prefix(bytes.data(), cut);
    EXPECT_THROW(
        {
          SegmentStream stream(memoryStorageOf(prefix), 64);
          while (!stream.exhausted()) stream.advance();
        },
        std::exception)
        << "prefix length " << cut;
  }
}

TEST(SegmentStream, RejectsStructuralCorruption) {
  const nd::Coord keySpace{4, 4};
  Segment seg = testsupport::pack(0, 0,
                                  {{nd::Coord{1, 2}, Value::scalar(2.0), 1},
                                   {nd::Coord{3, 0}, Value::list({1.0}), 2}},
                                  keySpace);
  auto drain = [&](std::span<const std::byte> bytes) {
    SegmentStream stream(memoryStorageOf(bytes), 64);
    while (!stream.exhausted()) stream.advance();
  };
  {
    // Bad kind byte in the first record: header(32) + rank varint(1) +
    // two extent varints(2) + lin varint(1) + represents varint(1) =
    // kind byte at offset 37.
    auto bytes = seg.serialize();
    bytes[37] = std::byte{9};
    EXPECT_THROW(drain(bytes), std::runtime_error);
  }
  {
    // Trailing bytes after the last record.
    auto bytes = seg.serialize();
    bytes.push_back(std::byte{0});
    EXPECT_THROW(drain(bytes), std::runtime_error);
  }
  {
    // Header represents disagrees with the record sum.
    auto bytes = seg.serialize();
    bytes[24] = std::byte{0xff};  // represents word (little-endian)
    EXPECT_THROW(drain(bytes), std::runtime_error);
  }
  {
    // A corrupt embedded key space: no rank, or an empty extent.
    const auto bytes = seg.serialize();
    EXPECT_THROW(drain(withKeySpace(bytes, keySpace, 0, {})),
                 std::runtime_error);
    EXPECT_THROW(drain(withKeySpace(bytes, keySpace, 2, {4, 0})),
                 std::runtime_error);
  }
}

TEST(SegmentStream, CompressedRejectsKeySpaceMismatch) {
  // The stream decodes in the key space its encoding carries; a merge
  // in any other rejects it, and a key past it fails the stream.
  const nd::Coord keySpace{4, 4};
  Segment seg = testsupport::pack(
      0, 0, {{nd::Coord{1, 2}, Value::scalar(2.0), 1}}, keySpace);
  auto bytes = seg.serialize();
  SegmentStream ok(memoryStorageOf(bytes), 64);
  EXPECT_EQ(ok.keySpace(), keySpace);
  EXPECT_EQ(ok.lin(), 6u);
  const SegmentMerger::Input in[] = {{nullptr, &ok}};
  EXPECT_THROW(SegmentMerger(in, nd::Coord{5, 4}), std::invalid_argument);
  EXPECT_THROW(
      SegmentStream(memoryStorageOf(withKeySpace(bytes, keySpace, 2, {1, 4})),
                    64),
      std::out_of_range);
}

TEST(SegmentStream, MergerOverStreamsMatchesInMemory) {
  // Mixed-source merge: one resident segment, one streamed — group
  // sequence must be identical to merging both in memory.
  const nd::Coord keySpace{8, 8};
  std::mt19937_64 rng(5);
  Segment a = testsupport::pack(1, 0, randomSortedRecords(rng, keySpace, 30),
                                keySpace);
  Segment b = testsupport::pack(2, 0, randomSortedRecords(rng, keySpace, 45),
                                keySpace);
  auto bytesB = b.serialize();

  struct Group {
    nd::Coord key;
    std::vector<Value> values;
    std::uint64_t represents;
  };
  auto collect = [](SegmentMerger& merger) {
    std::vector<Group> groups;
    merger.forEachGroup([&](const nd::Coord& key,
                            std::span<const Value* const> values,
                            std::uint64_t represents) {
      Group g;
      g.key = key;
      for (const Value* v : values) g.values.push_back(*v);
      g.represents = represents;
      groups.push_back(std::move(g));
    });
    return groups;
  };

  std::vector<const Segment*> both{&a, &b};
  SegmentMerger reference{std::span<const Segment* const>(both), keySpace};
  auto want = collect(reference);

  SegmentStream streamB(memoryStorageOf(bytesB), 128);
  std::vector<SegmentMerger::Input> inputs(2);
  inputs[0].segment = &a;
  inputs[1].stream = &streamB;
  SegmentMerger mixed{std::span<const SegmentMerger::Input>(inputs), keySpace};
  auto got = collect(mixed);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].represents, want[i].represents);
    ASSERT_EQ(got[i].values.size(), want[i].values.size());
    for (std::size_t j = 0; j < want[i].values.size(); ++j) {
      EXPECT_EQ(got[i].values[j], want[i].values[j]);
    }
  }
}

}  // namespace
}  // namespace sidr::mr
