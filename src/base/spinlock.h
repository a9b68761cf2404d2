// Simple spinlocks guarding kernel data structures.
//
// The paper's kernel runs on cache-coherent multiprocessors, so its run
// queues, port queues and stack pool take simple locks, and the reproduction
// keeps them to preserve the code shape of the original paths. The simulator
// itself runs on one host thread — its simulated processors are interleaved
// only at safe points — so no lock is ever contended by another host thread
// and an atomic would buy nothing. The lock is a plain held flag whose only
// job is to catch a lock held across a thread block: the cycle model never
// charged for locking, so the flag costs no virtual time either.
#ifndef MACHCONT_SRC_BASE_SPINLOCK_H_
#define MACHCONT_SRC_BASE_SPINLOCK_H_

#include "src/base/panic.h"

namespace mkc {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() {
    if (held_) {
      // One host thread: a held lock at Lock() means its holder blocked
      // without releasing it, which the kernel forbids (a blocked holder
      // could never release it). Fail fast instead of spinning forever.
      Panic("spinlock deadlock: lock held across a thread block");
    }
    held_ = true;
  }

  bool TryLock() {
    if (held_) {
      return false;
    }
    held_ = true;
    return true;
  }

  void Unlock() { held_ = false; }

 private:
  bool held_ = false;
};

// Scoped holder, RAII style.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinLockGuard() { lock_.Unlock(); }

  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_BASE_SPINLOCK_H_
