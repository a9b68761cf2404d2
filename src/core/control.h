// The machine-independent control-transfer layer — Figure 4 of the paper.
//
// These are the building blocks every blocking kernel path uses. The
// distinction that drives the whole system:
//
//   ThreadBlock(cont, reason)    give up the processor to whichever thread
//                                the scheduler picks. cont == nullptr means
//                                block under the process model (stack and
//                                registers preserved; the call RETURNS when
//                                rescheduled). cont != nullptr means block
//                                with a continuation (stack discarded or
//                                handed off; the call NEVER returns).
//
//   ThreadHandoff(cont, next)    give the processor — and the running kernel
//                                stack — directly to `next`, without calling
//                                next's continuation. The caller, now
//                                executing as `next`, gets the chance to do
//                                continuation recognition before deciding how
//                                to finish (the RPC and exception fast paths).
//
// Under the kMach25 and kMK32 kernel models, supplied continuations are
// ignored (forced to the process model) so the same call sites measure all
// three kernels. The handoff-path entries take the kernel and the current
// thread from their callers, which always hold both.
#ifndef MACHCONT_SRC_CORE_CONTROL_H_
#define MACHCONT_SRC_CORE_CONTROL_H_

#include "src/kern/thread.h"

namespace mkc {

class Kernel;

// Blocks the current thread. The caller must have already moved the thread
// out of kRunning (to kWaiting on some queue/event, kRunnable for
// preemption-style blocks, or kHalted). Returns only for process-model
// blocks.
void ThreadBlock(Continuation cont, BlockReason reason);

// Hands the processor and current stack directly to `next`, which must be
// blocked with a continuation (and therefore stackless). On return the
// caller is executing as `next`, in the blocking thread's still-live frame;
// it must finish with continuation recognition, CallContinuation, or an
// explicit return to user space. Only valid under models with continuations.
// `self` must be the current thread.
void ThreadHandoff(Kernel& k, Thread* self, Continuation cont, Thread* next,
                   BlockReason reason);

// Directed switch to a specific thread under the process model: the MK32
// RPC optimization ("it context-switches directly from the sending thread to
// the receiving thread" §3.3), which avoids the scheduler but still pays the
// full register save/restore. Returns when the caller is rescheduled.
void ThreadRunDirected(Thread* next, BlockReason reason);

// Disposes of the previously running thread after a context switch: frees
// its stack if it blocked with a continuation, and returns it to the run
// queue if it is still runnable. (Figure 4's thread_dispatch.)
void ThreadDispatch(Kernel& k, Thread* old_thread);

// Fresh-stack entry point installed by StackAttach (Figure 4's
// thread_continue): dispatches the old thread, then calls the new thread's
// own continuation.
[[noreturn]] void ThreadContinue(Thread* old_thread, Thread* self);

// Takes and clears the current thread's continuation (threads must not
// resume with a stale continuation pointer).
Continuation TakeContinuation(Thread* thread);

// The post-handoff recognition dispatch (§2.4 generalized): called by every
// ThreadHandoff site while executing as `resumed`, in the donor's still-live
// frame. Charges the recognition-check cycles, consults the recognition
// table for a specialized on_handoff handler, and falls back to calling the
// thread's full continuation when no handler completes the resume. The
// legacy hard-coded pointer compares (mach_msg receive, both exception fast
// paths) are now just table entries behind this dispatch.
[[noreturn]] void ResumeAfterHandoff(Kernel& k, Thread* resumed);

}  // namespace mkc

#endif  // MACHCONT_SRC_CORE_CONTROL_H_
