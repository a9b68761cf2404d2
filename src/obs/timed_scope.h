// RAII scope timer over virtual time.
//
// Records the virtual-tick duration of a scope into a LatencyHistogram when
// the scope exits normally. Only usable on paths that *return* — most kernel
// control transfers end in a ContextJump and never unwind, so those paths
// (block-to-resume, fault service, exception service) instead carry explicit
// start stamps on the Thread and record at their resume/finish points.
//
// Timestamps come from Kernel::LatencyNow() (the machine-wide virtual-time
// frontier), not a single CPU's clock: a scope can be suspended on one CPU
// and finish on another after a work-steal, and only the frontier is
// monotonic across that migration. With ncpu == 1 it is exactly the clock.
#ifndef MACHCONT_SRC_OBS_TIMED_SCOPE_H_
#define MACHCONT_SRC_OBS_TIMED_SCOPE_H_

#include "src/base/types.h"
#include "src/kern/kernel.h"
#include "src/obs/metrics.h"

namespace mkc {

class TimedScope {
 public:
  TimedScope(const Kernel& kernel, LatencyHistogram* hist)
      : kernel_(kernel), hist_(hist), start_(kernel.LatencyNow()) {}

  ~TimedScope() {
    if (hist_ != nullptr) {
      hist_->Record(kernel_.LatencyNow() - start_);
    }
  }

  TimedScope(const TimedScope&) = delete;
  TimedScope& operator=(const TimedScope&) = delete;

 private:
  const Kernel& kernel_;
  LatencyHistogram* hist_;
  Ticks start_;
};

#define MKC_OBS_CONCAT2(a, b) a##b
#define MKC_OBS_CONCAT(a, b) MKC_OBS_CONCAT2(a, b)

// Times the rest of the enclosing scope into `hist` (a LatencyHistogram*,
// may be null) using `kernel`'s migration-safe virtual-time frontier.
#define MKC_TIMED_SCOPE(kernel, hist) \
  ::mkc::TimedScope MKC_OBS_CONCAT(mkc_timed_scope_, __LINE__)((kernel), (hist))

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_TIMED_SCOPE_H_
