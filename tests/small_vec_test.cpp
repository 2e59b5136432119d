// SmallVec semantics: inline storage, heap spill, copy/move/self-assign.
// The hot path depends on codec lists staying inline (copying a descriptor
// must not allocate), so the inline/spill boundary is pinned here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/small_vec.hpp"

namespace cmc {
namespace {

TEST(SmallVec, StartsEmptyAndInline) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_TRUE(v.isInline());
}

TEST(SmallVec, StaysInlineUpToCapacity) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.isInline());
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, SpillsToHeapBeyondCapacity) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 5; ++i) v.push_back(i);
  EXPECT_FALSE(v.isInline());
  EXPECT_GE(v.capacity(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
  // Clearing does not shrink back inline: capacity is sticky.
  v.clear();
  EXPECT_FALSE(v.isInline());
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, InitializerListAndEquality) {
  SmallVec<int, 4> a{1, 2, 3};
  SmallVec<int, 4> b{1, 2, 3};
  SmallVec<int, 4> c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  a = {7, 8};
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 7);
}

TEST(SmallVec, CopyInlineAndHeap) {
  SmallVec<std::string, 2> small{"a", "b"};
  SmallVec<std::string, 2> copy1(small);
  EXPECT_EQ(copy1, small);
  EXPECT_TRUE(copy1.isInline());

  SmallVec<std::string, 2> big{"a", "b", "c", "d"};
  SmallVec<std::string, 2> copy2(big);
  EXPECT_EQ(copy2, big);
  EXPECT_FALSE(copy2.isInline());
  // Deep copy: mutating the copy leaves the original alone.
  copy2[0] = "z";
  EXPECT_EQ(big[0], "a");
}

TEST(SmallVec, MoveStealsHeapLeavesSourceEmpty) {
  SmallVec<int, 2> big{1, 2, 3, 4};
  const int* data = big.data();
  SmallVec<int, 2> moved(std::move(big));
  EXPECT_EQ(moved.data(), data);  // heap buffer stolen, not copied
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_TRUE(big.empty());       // NOLINT(bugprone-use-after-move): spec'd
  EXPECT_TRUE(big.isInline());    // moved-from is valid, empty, inline
  big.push_back(9);
  EXPECT_EQ(big[0], 9);
}

TEST(SmallVec, MoveInlineMovesElements) {
  SmallVec<std::string, 4> v{"hello", "world"};
  SmallVec<std::string, 4> moved(std::move(v));
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], "hello");
  EXPECT_TRUE(moved.isInline());
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): spec'd
}

TEST(SmallVec, MoveAssignOverwritesExisting) {
  SmallVec<int, 2> dst{9, 9, 9};  // heap
  SmallVec<int, 2> src{1};
  dst = std::move(src);
  EXPECT_EQ(dst.size(), 1u);
  EXPECT_EQ(dst[0], 1);
}

TEST(SmallVec, SelfCopyAssignIsNoop) {
  SmallVec<int, 2> v{1, 2, 3};
  auto& alias = v;
  v = alias;
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3);
}

TEST(SmallVec, SelfMoveAssignLeavesValid) {
  SmallVec<int, 2> v{1, 2, 3};
  auto& alias = v;
  v = std::move(alias);
  // Standard-library convention: self-move leaves the object valid; we
  // additionally guarantee it is unchanged.
  EXPECT_EQ(v.size(), 3u);
}

TEST(SmallVec, AssignFromOwnRangeBuffersThroughTemporary) {
  SmallVec<int, 4> v{1, 2, 3};
  v.assign(v.begin(), v.end());
  EXPECT_EQ(v, (SmallVec<int, 4>{1, 2, 3}));
  // Partial self-range too (the dangerous aliasing case).
  v.assign(v.begin() + 1, v.end());
  EXPECT_EQ(v, (SmallVec<int, 4>{2, 3}));
}

TEST(SmallVec, AssignFromForeignIteratorsAndVector) {
  std::vector<int> src{4, 5, 6, 7, 8};
  SmallVec<int, 4> v{1};
  v.assign(src.begin(), src.end());
  EXPECT_EQ(v.size(), 5u);
  EXPECT_FALSE(v.isInline());
  EXPECT_EQ(v[4], 8);
}

TEST(SmallVec, ReserveGrowsCapacityKeepsElements) {
  SmallVec<int, 2> v{1, 2};
  v.reserve(100);
  EXPECT_GE(v.capacity(), 100u);
  EXPECT_FALSE(v.isInline());
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
}

TEST(SmallVec, PopBackAndFrontBack) {
  SmallVec<int, 4> v{1, 2, 3};
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 3);
  v.pop_back();
  EXPECT_EQ(v.back(), 2);
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVec, InsertAndEraseShiftAcrossTheSpill) {
  SmallVec<std::string, 2> v{"b", "c"};
  v.insert(v.begin(), v.front());  // an element of v itself, spilling
  EXPECT_FALSE(v.isInline());
  EXPECT_EQ(v, (SmallVec<std::string, 2>{"b", "b", "c"}));
  v.insert(v.end(), "d");
  v.erase(v.begin());
  EXPECT_EQ(v, (SmallVec<std::string, 2>{"b", "c", "d"}));
  v.erase(v.begin() + 1);
  EXPECT_EQ(v, (SmallVec<std::string, 2>{"b", "d"}));
}

TEST(SmallVec, NonTrivialElementsDestroyed) {
  // shared_ptr use counts observe destruction across spill and clear.
  auto p = std::make_shared<int>(42);
  {
    SmallVec<std::shared_ptr<int>, 2> v;
    for (int i = 0; i < 5; ++i) v.push_back(p);  // spills at 3
    EXPECT_EQ(p.use_count(), 6);
  }
  EXPECT_EQ(p.use_count(), 1);
}

TEST(SmallVec, IterationMatchesIndexing) {
  SmallVec<int, 4> v{10, 20, 30};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 60);
  const auto& cv = v;
  EXPECT_EQ(*cv.begin(), 10);
  EXPECT_EQ(cv.end() - cv.begin(), 3);
}

}  // namespace
}  // namespace cmc
