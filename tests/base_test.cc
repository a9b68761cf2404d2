// Unit tests for the base substrate: RNG, virtual clock, event queue,
// kern_return names, cost model, cycle conversions, spinlocks and the
// ambient-kernel checks.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/kern_return.h"
#include "src/base/rng.h"
#include "src/base/spinlock.h"
#include "src/base/vclock.h"
#include "src/kern/kernel.h"
#include "src/machine/cost_model.h"
#include "src/machine/cycle_model.h"

namespace mkc {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0));
    EXPECT_TRUE(rng.Chance(1000));
  }
}

TEST(VirtualClockTest, AdvanceAndAdvanceTo) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(50);  // Never backwards.
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500u);
}

TEST(EventQueueTest, RunsInDeadlineOrder) {
  VirtualClock clock;
  EventQueue events;
  std::vector<int> order;
  events.Post(300, [&] { order.push_back(3); });
  events.Post(100, [&] { order.push_back(1); });
  events.Post(200, [&] { order.push_back(2); });
  while (!events.Empty()) {
    events.RunNext(clock);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 300u);
}

TEST(EventQueueTest, SameDeadlineRunsInPostOrder) {
  VirtualClock clock;
  EventQueue events;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    events.Post(42, [&order, i] { order.push_back(i); });
  }
  while (!events.Empty()) {
    events.RunNext(clock);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayPostEvents) {
  VirtualClock clock;
  EventQueue events;
  int fired = 0;
  events.Post(10, [&] {
    ++fired;
    events.Post(20, [&] { ++fired; });
  });
  events.RunNext(clock);
  ASSERT_FALSE(events.Empty());
  events.RunNext(clock);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(clock.Now(), 20u);
}

TEST(KernReturnTest, NamesAreDistinctAndStable) {
  EXPECT_STREQ(KernReturnName(KernReturn::kSuccess), "KERN_SUCCESS");
  EXPECT_STREQ(KernReturnName(KernReturn::kRcvTimedOut), "MACH_RCV_TIMED_OUT");
  EXPECT_STREQ(KernReturnName(KernReturn::kSendInvalidDest), "MACH_SEND_INVALID_DEST");
  EXPECT_TRUE(IsSuccess(KernReturn::kSuccess));
  EXPECT_FALSE(IsSuccess(KernReturn::kFailure));
}

TEST(CostModelTest, AccumulatesPerOp) {
  CostModel model;
  model.Account(CostOp::kStackHandoff, 3, 4);
  model.Account(CostOp::kStackHandoff, 3, 4);
  model.Account(CostOp::kContextSwitch, 30, 30);
  EXPECT_EQ(model.Get(CostOp::kStackHandoff).calls, 2u);
  EXPECT_EQ(model.Get(CostOp::kStackHandoff).word_loads, 6u);
  EXPECT_EQ(model.Get(CostOp::kContextSwitch).word_stores, 30u);
  model.Reset();
  EXPECT_EQ(model.Get(CostOp::kStackHandoff).calls, 0u);
}

TEST(CostModelTest, OpNamesExist) {
  for (int i = 0; i < static_cast<int>(CostOp::kCount); ++i) {
    EXPECT_STRNE(CostOpName(static_cast<CostOp>(i)), "unknown");
  }
}

TEST(CycleModelTest, ConversionMatchesSimulatedClock) {
  // 16.67 cycles take one microsecond on the simulated DS3100.
  EXPECT_NEAR(CyclesToMicros(1667), 100.0, 0.1);
  // Table 4's primitives keep their relative order.
  EXPECT_LT(kCycStackHandoff, kCycContextSwitchNoSave);
  EXPECT_LT(kCycContextSwitchNoSave, kCycContextSwitch);
  EXPECT_LT(kCycSyscallExitMk32, kCycSyscallExitMk40);
}

// The simulator runs on one host thread, so a second Lock() can only mean a
// lock held across a block: it must panic, not spin.
TEST(SpinLockTest, RelockWhileHeldPanics) {
  SpinLock lock;
  lock.Lock();
  EXPECT_DEATH(lock.Lock(), "spinlock deadlock");
  lock.Unlock();
}

TEST(SpinLockTest, TryLockFailsWhileHeldAndSucceedsAfterUnlock) {
  SpinLock lock;
  ASSERT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
  {
    SpinLockGuard guard(lock);
    EXPECT_FALSE(lock.TryLock());
  }
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

// ActiveKernel() and CurrentThread() are inline on the hot paths; their
// checks must still fire outside Kernel::Run.
TEST(ActiveKernelTest, OutsideRunPanics) {
  EXPECT_FALSE(KernelIsActive());
  EXPECT_DEATH(ActiveKernel(), "no kernel is running");
  EXPECT_DEATH(CurrentThread(), "no kernel is running");
}

}  // namespace
}  // namespace mkc
