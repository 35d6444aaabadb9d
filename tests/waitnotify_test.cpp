//===- tests/waitnotify_test.cpp - Atomics.wait/notify (§7) ---------------===//

#include "waitnotify/WaitNotify.h"

#include <gtest/gtest.h>

using namespace jsmm;

namespace {

/// Fig. 13a: T0: wait(x,0,0); r0 = load(x) | T1: store(x,42); r1 = notify.
WnProgram fig13aProgram() {
  WnProgram P;
  P.BufferSize = 4;
  P.Name = "fig13a";
  unsigned T0 = P.thread();
  P.wait(T0, 0, 0);
  P.load(T0, 0, Mode::SeqCst);
  unsigned T1 = P.thread();
  P.store(T1, 0, 42, Mode::SeqCst);
  P.notify(T1, 0);
  return P;
}

} // namespace

TEST(WaitNotify, CorrectedModelAlwaysTerminatesWith42) {
  WnResult R = enumerateWaitNotify(fig13aProgram(), ModelSpec::revised(),
                                   /*CriticalSectionAsw=*/true);
  EXPECT_FALSE(R.allowsStuckThread())
      << "the intuitive guarantee: the program always terminates";
  // Both overall shapes remain: woken (notify returns 1) or fell through
  // (notify returns 0), and the final load always reads 42.
  EXPECT_TRUE(R.allows("0:r0=42 1:r0=1"));
  EXPECT_TRUE(R.allows("0:r0=42 1:r0=0"));
  for (const std::string &O : R.AllowedOutcomes)
    EXPECT_NE(O.find("0:r0=42"), std::string::npos)
        << "unexpected outcome " << O;
}

TEST(WaitNotify, UncorrectedModelAllowsFig13b) {
  // Fig. 13b: the woken thread's load still reads 0 even though the wake
  // proves the store already executed.
  WnResult R = enumerateWaitNotify(fig13aProgram(), ModelSpec::revised(),
                                   /*CriticalSectionAsw=*/false);
  EXPECT_TRUE(R.allows("0:r0=0 1:r0=1"));
}

TEST(WaitNotify, UncorrectedModelAllowsFig13c) {
  // Fig. 13c: the wait still suspends (reads 0) even though notify ran
  // first and woke nobody — the thread is stuck forever.
  WnResult R = enumerateWaitNotify(fig13aProgram(), ModelSpec::revised(),
                                   /*CriticalSectionAsw=*/false);
  EXPECT_TRUE(R.allowsStuckThread());
  EXPECT_TRUE(R.allows("1:r0=0 T0:stuck"));
}

TEST(WaitNotify, CorrectedModelForbidsBothFigures) {
  WnResult R = enumerateWaitNotify(fig13aProgram(), ModelSpec::revised(),
                                   /*CriticalSectionAsw=*/true);
  EXPECT_FALSE(R.allows("0:r0=0 1:r0=1")) << "Fig. 13b";
  EXPECT_FALSE(R.allows("1:r0=0 T0:stuck")) << "Fig. 13c";
}

TEST(WaitNotify, FallThroughWhenValueDiffers) {
  // wait with a non-matching expected value never suspends.
  WnProgram P;
  P.BufferSize = 4;
  unsigned T0 = P.thread();
  P.wait(T0, 0, /*Expected=*/7);
  P.load(T0, 0, Mode::SeqCst);
  WnResult R = enumerateWaitNotify(P, ModelSpec::revised(), true);
  EXPECT_FALSE(R.allowsStuckThread());
  EXPECT_TRUE(R.allows("0:r0=0"));
}

TEST(WaitNotify, WaitWithNoNotifyBlocksForever) {
  WnProgram P;
  P.BufferSize = 4;
  unsigned T0 = P.thread();
  P.wait(T0, 0, 0);
  P.load(T0, 0, Mode::SeqCst);
  WnResult R = enumerateWaitNotify(P, ModelSpec::revised(), true);
  EXPECT_TRUE(R.allowsStuckThread());
  EXPECT_TRUE(R.allows(" T0:stuck") || R.allows("empty T0:stuck"))
      << *R.AllowedOutcomes.begin();
}

TEST(WaitNotify, NotifyCountsMultipleWaiters) {
  WnProgram P;
  P.BufferSize = 4;
  unsigned T0 = P.thread();
  P.wait(T0, 0, 0);
  unsigned T1 = P.thread();
  P.wait(T1, 0, 0);
  unsigned T2 = P.thread();
  P.notify(T2, 0);
  WnResult R = enumerateWaitNotify(P, ModelSpec::revised(), true);
  bool SawTwo = false;
  for (const std::string &O : R.AllowedOutcomes)
    if (O.find("2:r0=2") != std::string::npos)
      SawTwo = true;
  EXPECT_TRUE(SawTwo) << "both waiters woken by one notify";
}

TEST(WaitNotify, NotifyOnDifferentLocationWakesNobody) {
  WnProgram P;
  P.BufferSize = 8;
  unsigned T0 = P.thread();
  P.wait(T0, 0, 0);
  unsigned T1 = P.thread();
  P.notify(T1, 4);
  WnResult R = enumerateWaitNotify(P, ModelSpec::revised(), true);
  // The waiter can only be stuck (or have fallen through... it cannot:
  // location 0 is always 0). Notify's count is always 0.
  EXPECT_TRUE(R.allowsStuckThread());
  for (const std::string &O : R.AllowedOutcomes)
    EXPECT_NE(O.find("1:r0=0"), std::string::npos);
}

TEST(WaitNotify, EffortCountsArePinned) {
  // The Fig. 13a program behind Figs. 13b and 13c: nine schedules and
  // 1,032 justified candidates under either spec. The §7 edges only
  // change how many of those candidates are valid.
  struct Pin {
    ModelSpec Spec;
    bool CriticalSectionAsw;
    uint64_t ValidCandidates;
  };
  for (const Pin &Want : {Pin{ModelSpec::original(), false, 11},
                          Pin{ModelSpec::original(), true, 8},
                          Pin{ModelSpec::revised(), false, 11},
                          Pin{ModelSpec::revised(), true, 8}}) {
    WnResult R = enumerateWaitNotify(fig13aProgram(), Want.Spec,
                                     Want.CriticalSectionAsw);
    SCOPED_TRACE(Want.CriticalSectionAsw ? "with asw" : "without asw");
    EXPECT_EQ(R.Schedules, 9u);
    EXPECT_EQ(R.Candidates, 1032u);
    EXPECT_EQ(R.ValidCandidates, Want.ValidCandidates);
  }
}

TEST(WaitNotify, CorrectedSemanticsStillAllowsRacyFreedom) {
  // Sanity: adding the §7 edges does not forbid ordinary relaxed outcomes
  // of unrelated accesses.
  WnProgram P;
  P.BufferSize = 8;
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  P.load(T0, 4, Mode::Unordered);
  unsigned T1 = P.thread();
  P.store(T1, 4, 1, Mode::Unordered);
  P.load(T1, 0, Mode::Unordered);
  WnResult R = enumerateWaitNotify(P, ModelSpec::revised(), true);
  EXPECT_TRUE(R.allows("0:r0=0 1:r0=0")) << "SB stays allowed";
}
