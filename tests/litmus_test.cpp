//===- tests/litmus_test.cpp - Programs and path enumeration --------------===//

#include "litmus/PathEnum.h"
#include "litmus/Program.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(Program, BuilderAssignsRegistersPerThread) {
  Program P(16);
  ThreadBuilder T0 = P.thread();
  Reg A = T0.load(Acc::u32(0));
  Reg B = T0.load(Acc::u32(4));
  ThreadBuilder T1 = P.thread();
  Reg C = T1.load(Acc::u32(0));
  EXPECT_EQ(A.Index, 0u);
  EXPECT_EQ(B.Index, 1u);
  EXPECT_EQ(C.Index, 0u);
  EXPECT_EQ(A.Thread, 0);
  EXPECT_EQ(C.Thread, 1);
}

TEST(Program, AccessDescriptors) {
  EXPECT_EQ(Acc::u8(3).Width, 1u);
  EXPECT_EQ(Acc::u16(2).Width, 2u);
  EXPECT_EQ(Acc::u32(4).Width, 4u);
  EXPECT_TRUE(Acc::u32(4).TearFree);
  EXPECT_FALSE(Acc::u64(0).TearFree) << "64-bit non-atomics tear";
  EXPECT_FALSE(Acc::dataView(3, 2).TearFree);
  EXPECT_EQ(Acc::u32(0).sc().Ord, Mode::SeqCst);
  EXPECT_TRUE(Acc::u64(0).sc().TearFree) << "Atomics are tear-free";
  EXPECT_EQ(Acc::u32(0).block(2).Block, 2u);
}

TEST(Program, ExchangeIsSeqCst) {
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.exchange(Acc::u32(0), 5);
  const Instr &I = P.threadBody(0)[0];
  EXPECT_EQ(I.K, Instr::Kind::Rmw);
  EXPECT_EQ(I.Access.Ord, Mode::SeqCst);
}

TEST(Program, BuilderRejectsAccessesOutsideBuffers) {
  // Every analysis and engine door indexes a buffer by an access's bytes,
  // so an out-of-range access must not get into a Program.
  Program P(8);
  P.thread().load(Acc::u32(0));
  ThreadBuilder T = P.thread();
  EXPECT_THROW(T.store(Acc::u32(6), 1), std::out_of_range);
  EXPECT_THROW(T.store(Acc::u32(0).block(1), 1), std::out_of_range);
  EXPECT_THROW(T.load(Acc::u8(8)), std::out_of_range);
  EXPECT_THROW(T.exchange(Acc::u64(1), 1), std::out_of_range);
  EXPECT_TRUE(P.threadBody(1).empty());

  // Accesses ending on the last byte of a buffer still build.
  T.store(Acc::u32(4), 1);
  T.load(Acc::u8(7));
  T.exchange(Acc::u64(0), 2);
  unsigned B1 = P.addBuffer(2);
  T.store(Acc::u16(0).block(B1), 3);
  EXPECT_EQ(P.threadBody(1).size(), 4u);

  // Accesses in a conditional body are checked too.
  Program Q(8);
  ThreadBuilder U = Q.thread();
  Reg R = U.load(Acc::u32(0));
  EXPECT_THROW(
      U.ifEq(R, 0, [](ThreadBuilder &B) { B.load(Acc::u32(5)); }),
      std::out_of_range);
}

TEST(PathEnum, StraightLineHasOnePath) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.load(Acc::u32(4));
  auto Paths = enumeratePaths(P.threadBody(0));
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Accesses.size(), 2u);
  EXPECT_TRUE(Paths[0].Constraints.empty());
}

TEST(PathEnum, ConditionalSplitsIntoTwoPaths) {
  Program P = fig1Program();
  auto Paths = enumeratePaths(P.threadBody(1));
  ASSERT_EQ(Paths.size(), 2u);
  // Taken path: flag load + message load, constraint r0 == 5.
  const ThreadPath &Taken = Paths[0];
  EXPECT_EQ(Taken.Accesses.size(), 2u);
  ASSERT_EQ(Taken.Constraints.size(), 1u);
  EXPECT_TRUE(Taken.Constraints[0].MustEqual);
  EXPECT_EQ(Taken.Constraints[0].Value, 5u);
  // Skipped path: only the flag load, constraint r0 != 5.
  const ThreadPath &Skipped = Paths[1];
  EXPECT_EQ(Skipped.Accesses.size(), 1u);
  ASSERT_EQ(Skipped.Constraints.size(), 1u);
  EXPECT_FALSE(Skipped.Constraints[0].MustEqual);
}

TEST(PathEnum, NestedConditionals) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  Reg A = T0.load(Acc::u32(0));
  T0.ifEq(A, 1, [&](ThreadBuilder &B) {
    Reg C = B.load(Acc::u32(4));
    B.ifEq(C, 2, [&](ThreadBuilder &B2) { B2.store(Acc::u32(0), 9); });
  });
  auto Paths = enumeratePaths(P.threadBody(0));
  // outer-skip; outer-take × {inner-skip, inner-take}.
  EXPECT_EQ(Paths.size(), 3u);
  size_t MaxLen = 0;
  for (const ThreadPath &Path : Paths)
    MaxLen = std::max(MaxLen, Path.Accesses.size());
  EXPECT_EQ(MaxLen, 3u);
}

TEST(PathEnum, IfNeNegatesConstraint) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  Reg A = T0.load(Acc::u32(0));
  T0.ifNe(A, 0, [&](ThreadBuilder &B) { B.store(Acc::u32(4), 1); });
  auto Paths = enumeratePaths(P.threadBody(0));
  ASSERT_EQ(Paths.size(), 2u);
  EXPECT_FALSE(Paths[0].Constraints[0].MustEqual); // taken: != 0
  EXPECT_TRUE(Paths[1].Constraints[0].MustEqual);  // skipped: == 0
}

TEST(PathEnum, ConstraintsAllowChecksOnlyMatchingRegister) {
  ThreadPath Path;
  Path.Constraints.push_back({0, 5, true});
  Path.Constraints.push_back({1, 7, false});
  EXPECT_TRUE(constraintsAllow(Path, 0, 5));
  EXPECT_FALSE(constraintsAllow(Path, 0, 4));
  EXPECT_FALSE(constraintsAllow(Path, 1, 7));
  EXPECT_TRUE(constraintsAllow(Path, 1, 8));
  EXPECT_TRUE(constraintsAllow(Path, 2, 12345)); // unconstrained register
}

TEST(PathEnum, InstructionsAfterJoinAppearOnBothPaths) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  Reg A = T0.load(Acc::u32(0));
  T0.ifEq(A, 1, [&](ThreadBuilder &B) { B.store(Acc::u32(4), 1); });
  T0.store(Acc::u32(4), 2); // after the join
  auto Paths = enumeratePaths(P.threadBody(0));
  ASSERT_EQ(Paths.size(), 2u);
  for (const ThreadPath &Path : Paths)
    EXPECT_EQ(Path.Accesses.back()->Value, 2u);
}
