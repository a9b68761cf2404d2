// Virtual time.
//
// The reproduction has no hardware clock interrupts. Instead, simulated user
// work and simulated device activity advance a virtual clock, and deferred
// activity (pageout "disk" completions, network packet arrival, timeouts) is
// queued on an event queue that the idle path drains in timestamp order.
// DESIGN.md documents this substitution for the paper's clock interrupts.
#ifndef MACHCONT_SRC_BASE_VCLOCK_H_
#define MACHCONT_SRC_BASE_VCLOCK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/types.h"

namespace mkc {

class VirtualClock {
 public:
  Ticks Now() const { return now_; }

  void Advance(Ticks delta) { now_ += delta; }

  // Moves the clock forward to `t`; never moves it backwards.
  void AdvanceTo(Ticks t) {
    if (t > now_) {
      now_ = t;
    }
  }

 private:
  Ticks now_ = 0;
};

// Pending deferred work, ordered by (virtual deadline, post order). Callbacks
// run in kernel context on the idle path; they may wake threads and post or
// cancel events, but must not block.
//
// An event is a plain record, not a closure: a function pointer, the context
// it runs on and one argument word, the same shape as the paper's
// continuation (a function pointer plus a small scratch area). The records
// live in a vector-backed binary heap, so posting allocates nothing once the
// vector has grown to the peak number of pending events.
//
// Lifetime: the queue stores `ctx` and `gen` as bare pointers. It reads
// `*gen` when the record reaches the top of the heap and hands `ctx` to `fn`
// when the record runs, so both must stay valid for as long as the queue is
// still drained. A queue destroyed undrained, with its kernel or cluster,
// touches neither.
//
// Cancellation: a record posted with a generation word `gen` is live only
// while `*gen == arg`; its owner cancels it by moving `*gen` on. (A receive
// timeout is armed with the thread's wait_seq, which the next wait bumps.)
// Cancelled records are dropped lazily at the top of the heap: they never
// run and never advance a clock.
class EventQueue {
 public:
  using Fn = void (*)(void* ctx, std::uint64_t arg);

  void Post(Ticks when, Fn fn, void* ctx, std::uint64_t arg = 0,
            const std::uint32_t* gen = nullptr) {
    heap_.push_back(Event{when, next_seq_++, fn, ctx, arg, gen});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  bool Empty() {
    DropCancelled();
    return heap_.empty();
  }

  // Precondition: !Empty().
  Ticks NextDeadline() {
    DropCancelled();
    return heap_.front().when;
  }

  // Pops the earliest live event, advances the clock to its deadline, and
  // runs it. The record is copied out first: the callback may post.
  // Precondition: !Empty().
  void RunNext(VirtualClock& clock) {
    DropCancelled();
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Event event = heap_.back();
    heap_.pop_back();
    clock.AdvanceTo(event.when);
    event.fn(event.ctx, event.arg);
  }

 private:
  struct Event {
    Ticks when;
    std::uint64_t seq;  // Tie-break so same-deadline events run in post order.
    Fn fn;
    void* ctx;
    std::uint64_t arg;
    const std::uint32_t* gen;  // Null: never cancelled.
  };

  // Heap order: true when `a` runs after `b`, which makes the front the
  // earliest (deadline, seq) pair.
  static bool Later(const Event& a, const Event& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  void DropCancelled() {
    while (!heap_.empty() && heap_.front().gen != nullptr &&
           *heap_.front().gen != heap_.front().arg) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_BASE_VCLOCK_H_
