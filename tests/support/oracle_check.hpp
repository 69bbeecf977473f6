// Content check of an engine result against a serial oracle
// (sh::runSerialOracle, the nested-loop join oracle): counting records
// or annotations cannot catch a wrong value, so every field of every
// value is compared.
#pragma once

#include <vector>

#include "mapreduce/kv.hpp"

namespace sidr::testsupport {

/// Same length, and per record: equal keys, equal value kinds, equal
/// list lengths, every number within 1e-9 (partial counts exactly).
/// Uses EXPECT_* / ASSERT_* internally.
void expectMatchesOracle(const std::vector<mr::KeyValue>& got,
                         const std::vector<mr::KeyValue>& oracle);

}  // namespace sidr::testsupport
