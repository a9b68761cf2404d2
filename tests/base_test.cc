// Unit tests for the base substrate: RNG, virtual clock, event queue,
// kern_return names, cost model, cycle conversions, spinlocks and the
// ambient-kernel checks.
#include <gtest/gtest.h>

#include <cstdint>
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

// Event callback for the queue tests: appends `arg` to the vector at `ctx`.
void Record(void* ctx, std::uint64_t arg) {
  static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(arg);
}

void RunAll(EventQueue& events, VirtualClock& clock) {
  while (!events.Empty()) {
    events.RunNext(clock);
  }
}

TEST(EventQueueTest, RunsInDeadlineOrder) {
  VirtualClock clock;
  EventQueue events;
  std::vector<std::uint64_t> order;
  events.Post(300, &Record, &order, 3);
  events.Post(100, &Record, &order, 1);
  events.Post(200, &Record, &order, 2);
  RunAll(events, clock);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 300u);
}

TEST(EventQueueTest, SameDeadlineRunsInPostOrder) {
  VirtualClock clock;
  EventQueue events;
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < 5; ++i) {
    events.Post(42, &Record, &order, i);
  }
  RunAll(events, clock);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

struct Chain {
  EventQueue* events = nullptr;
  int fired = 0;
};

// Fires, then posts itself once more at tick 20 while `arg` is nonzero.
void ChainFire(void* ctx, std::uint64_t arg) {
  auto* chain = static_cast<Chain*>(ctx);
  ++chain->fired;
  if (arg > 0) {
    chain->events->Post(20, &ChainFire, chain, arg - 1);
  }
}

TEST(EventQueueTest, EventsMayPostEvents) {
  VirtualClock clock;
  EventQueue events;
  Chain chain;
  chain.events = &events;
  events.Post(10, &ChainFire, &chain, 1);
  events.RunNext(clock);
  ASSERT_FALSE(events.Empty());
  events.RunNext(clock);
  EXPECT_EQ(chain.fired, 2);
  EXPECT_EQ(clock.Now(), 20u);
}

TEST(EventQueueTest, CancelledRecordNeverRunsNorAdvancesClock) {
  VirtualClock clock;
  EventQueue events;
  std::vector<std::uint64_t> order;
  std::uint32_t gen = 7;
  events.Post(100, &Record, &order, 7, &gen);  // Live while gen == 7.
  events.Post(50, &Record, &order, 1);
  ++gen;
  RunAll(events, clock);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(clock.Now(), 50u);  // Not 100: the cancelled deadline is skipped.
}

TEST(EventQueueTest, EmptyAndNextDeadlineSkipCancelled) {
  EventQueue events;
  std::vector<std::uint64_t> order;
  std::uint32_t gen = 0;
  events.Post(10, &Record, &order, 0, &gen);
  EXPECT_FALSE(events.Empty());
  EXPECT_EQ(events.NextDeadline(), 10u);
  events.Post(30, &Record, &order, 2);
  gen = 1;  // Cancels the tick-10 record, now under the live one.
  EXPECT_FALSE(events.Empty());
  EXPECT_EQ(events.NextDeadline(), 30u);

  EventQueue only_cancelled;
  std::uint32_t gen2 = 5;
  only_cancelled.Post(10, &Record, &order, 5, &gen2);
  gen2 = 6;
  EXPECT_TRUE(only_cancelled.Empty());
  EXPECT_TRUE(order.empty());  // Neither Empty() nor NextDeadline() runs anything.
}

TEST(EventQueueTest, LiveRecordsKeepPostOrderAroundCancelledOnes) {
  VirtualClock clock;
  EventQueue events;
  std::vector<std::uint64_t> order;
  std::uint32_t gens[8];
  for (std::uint32_t i = 0; i < 8; ++i) {
    gens[i] = i;
    events.Post(42, &Record, &order, i, (i % 2 == 1) ? &gens[i] : nullptr);
  }
  events.Post(41, &Record, &order, 100);
  events.Post(43, &Record, &order, 200);
  for (std::uint32_t i = 1; i < 8; i += 2) {
    ++gens[i];  // Cancel every odd record.
  }
  RunAll(events, clock);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{100, 0, 2, 4, 6, 200}));
}

// A re-armable timer in the shape of a receive timeout: arming bumps the
// generation word, which cancels whatever the previous arming posted.
struct Timer {
  EventQueue* events = nullptr;
  std::uint32_t gen = 0;
  std::vector<std::uint64_t> fired;  // Generation of each firing.

  void Arm(Ticks when) {
    ++gen;
    events->Post(when, &Fire, this, gen, &gen);
  }
  static void Fire(void* ctx, std::uint64_t arg) {
    static_cast<Timer*>(ctx)->fired.push_back(arg);
  }
};

struct Rearmer {
  Timer* timer = nullptr;
  std::vector<std::uint64_t>* order = nullptr;
};

// A "packet" event: posts a follow-up event and re-arms the timer later,
// cancelling the timer's pending predecessor.
void RearmFire(void* ctx, std::uint64_t arg) {
  auto* r = static_cast<Rearmer*>(ctx);
  r->order->push_back(arg);
  r->timer->events->Post(20, &Record, r->order, arg + 1);
  r->timer->Arm(40);
}

TEST(EventQueueTest, EventMayPostAndCancelItsPredecessor) {
  VirtualClock clock;
  EventQueue events;
  std::vector<std::uint64_t> order;
  Timer timer;
  timer.events = &events;
  Rearmer rearmer{&timer, &order};
  timer.Arm(30);  // Generation 1: superseded before it is due.
  events.Post(10, &RearmFire, &rearmer, 1);
  RunAll(events, clock);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(timer.fired, (std::vector<std::uint64_t>{2}));  // Only the re-armed one.
  EXPECT_EQ(clock.Now(), 40u);
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
