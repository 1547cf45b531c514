//===- tests/bitvector_test.cpp - BitVector unit tests ----------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include "gtest/gtest.h"

using namespace rap;

namespace {

TEST(BitVector, StartsEmpty) {
  BitVector B(100);
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.count(), 0u);
  for (unsigned I = 0; I < 100; ++I)
    EXPECT_FALSE(B.test(I));
}

TEST(BitVector, SetTestReset) {
  BitVector B(70);
  B.set(0);
  B.set(63);
  B.set(64); // crosses the word boundary
  B.set(69);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(63));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(69));
  EXPECT_FALSE(B.test(1));
  EXPECT_EQ(B.count(), 4u);
  B.reset(63);
  EXPECT_FALSE(B.test(63));
  EXPECT_EQ(B.count(), 3u);
}

TEST(BitVector, UnionReportsChange) {
  BitVector A(10), B(10);
  B.set(3);
  B.set(7);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)) << "second union is a no-op";
  EXPECT_TRUE(A.test(3));
  EXPECT_TRUE(A.test(7));
}

TEST(BitVector, IntersectAndSubtract) {
  BitVector A(10), B(10);
  A.set(1);
  A.set(2);
  A.set(3);
  B.set(2);
  B.set(3);
  B.set(4);
  BitVector I = A;
  EXPECT_TRUE(I.intersectWith(B));
  EXPECT_EQ(I.count(), 2u);
  EXPECT_TRUE(I.test(2));
  EXPECT_TRUE(I.test(3));

  BitVector D = A;
  EXPECT_TRUE(D.subtract(B));
  EXPECT_EQ(D.count(), 1u);
  EXPECT_TRUE(D.test(1));
}

TEST(BitVector, Intersects) {
  BitVector A(130), B(130);
  A.set(128);
  EXPECT_FALSE(A.intersects(B));
  B.set(128);
  EXPECT_TRUE(A.intersects(B));
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector A(10), B(11);
  EXPECT_NE(A, B);
  BitVector C(10);
  EXPECT_EQ(A, C);
  C.set(5);
  EXPECT_NE(A, C);
}

TEST(BitVector, ForEachVisitsInOrder) {
  BitVector B(200);
  B.set(5);
  B.set(64);
  B.set(199);
  std::vector<unsigned> Seen;
  B.forEach([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{5, 64, 199}));
  EXPECT_EQ(B.toVector(), Seen);
}

TEST(BitVector, ForEachCommonVisitsTheIntersectionInOrder) {
  BitVector A(200), B(130);
  for (unsigned I : {3u, 64u, 70u, 129u, 150u})
    A.set(I);
  for (unsigned I : {3u, 5u, 70u, 128u, 129u})
    B.set(I);
  std::vector<unsigned> Seen;
  A.forEachCommon(B, [&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{3, 70, 129}));
  Seen.clear();
  B.forEachCommon(A, [&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{3, 70, 129}));
}

TEST(BitVector, ClearEmptiesAllWords) {
  BitVector B(129);
  B.set(0);
  B.set(128);
  B.clear();
  EXPECT_TRUE(B.empty());
}

TEST(BitVector, ZeroSizedBehaves) {
  BitVector B(0);
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.count(), 0u);
  unsigned Calls = 0;
  B.forEach([&](unsigned) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
}

} // namespace
