#include "support/oracle_check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace sidr::testsupport {

void expectMatchesOracle(const std::vector<mr::KeyValue>& got,
                         const std::vector<mr::KeyValue>& oracle) {
  ASSERT_EQ(got.size(), oracle.size());
  constexpr double kTol = 1e-9;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].key, oracle[i].key);
    const mr::Value& a = got[i].value;
    const mr::Value& b = oracle[i].value;
    ASSERT_EQ(a.kind(), b.kind());
    switch (a.kind()) {
      case mr::ValueKind::kScalar:
        EXPECT_NEAR(a.asScalar(), b.asScalar(), kTol);
        break;
      case mr::ValueKind::kPartial: {
        const mr::Partial& p = a.asPartial();
        const mr::Partial& q = b.asPartial();
        EXPECT_NEAR(p.sum, q.sum, kTol);
        EXPECT_NEAR(p.min, q.min, kTol);
        EXPECT_NEAR(p.max, q.max, kTol);
        EXPECT_EQ(p.count, q.count);
        break;
      }
      case mr::ValueKind::kList: {
        const std::vector<double>& xs = a.asList();
        const std::vector<double>& ys = b.asList();
        ASSERT_EQ(xs.size(), ys.size());
        for (std::size_t j = 0; j < xs.size(); ++j) {
          EXPECT_NEAR(xs[j], ys[j], kTol) << "list element " << j;
        }
        break;
      }
    }
  }
}

}  // namespace sidr::testsupport
