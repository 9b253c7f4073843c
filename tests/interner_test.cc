#include "common/interner.h"

#include <gtest/gtest.h>

namespace provview {
namespace {

TEST(TupleInternerTest, AssignsDenseIdsInFirstSeenOrder) {
  TupleInterner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_EQ(interner.Intern({1, 2}), 0);
  EXPECT_EQ(interner.Intern({3}), 1);
  EXPECT_EQ(interner.Intern({1, 2}), 0);  // already present
  EXPECT_EQ(interner.Intern({}), 2);
  EXPECT_EQ(interner.size(), 3);
}

TEST(TupleInternerTest, FindNeverInserts) {
  TupleInterner interner;
  interner.Intern({7, 7});
  EXPECT_EQ(interner.Find({7, 7}), 0);
  EXPECT_EQ(interner.Find({7, 8}), -1);
  EXPECT_EQ(interner.size(), 1);
}

TEST(TupleInternerTest, TupleOfRoundTrips) {
  TupleInterner interner;
  std::vector<int32_t> t = {4, 0, 9};
  int32_t id = interner.Intern(t);
  EXPECT_EQ(interner.TupleOf(id), t);
}

}  // namespace
}  // namespace provview
