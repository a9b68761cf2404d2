// The machine-dependent control-transfer interface — Figure 3 of the paper.
//
// "Machine-dependent modules ... export a new internal interface for
// manipulating stacks and continuations. The new interface allows the
// machine-independent thread management and IPC modules to change address
// spaces, to manage the relationship of kernel stacks and threads, and to
// create and call continuations."
//
// Every function here corresponds one-to-one to an entry in Figure 3. The
// three transfer primitives (handoff, call_continuation, switch_context)
// additionally take the kernel and the current thread: their callers on
// the block/handoff paths already hold both, so passing them down saves
// looking them up again on every transfer.
#ifndef MACHCONT_SRC_MACHINE_MACHDEP_H_
#define MACHCONT_SRC_MACHINE_MACHDEP_H_

#include <cstdint>

#include "src/base/kern_return.h"
#include "src/kern/thread.h"

namespace mkc {

class Kernel;

// Entry point a freshly attached stack begins executing; receives the
// previously running thread (for dispatch) and the thread itself.
using StackStartFn = void (*)(Thread* old_thread, Thread* self);

// stack_attach(thread, stack, cont): transforms a machine-independent
// continuation into a machine-dependent kernel stack. When SwitchContext
// resumes `thread`, control enters `start` with the previously running
// thread as an argument.
void StackAttach(Thread* thread, KernelStack* stack, StackStartFn start);

// stack_detach(thread): detaches and returns the thread's kernel stack.
KernelStack* StackDetach(Thread* thread);

// stack_handoff(new_thread): moves the current kernel stack from the current
// thread `old_thread` to `new_thread`, changing address spaces if necessary.
// Returns as the new thread — the caller's frame is now owned by
// `new_thread`.
void StackHandoff(Kernel& k, Thread* old_thread, Thread* new_thread);

// call_continuation(cont): calls `cont` as the current thread `thread`,
// resetting the kernel stack pointer to the base of the current stack
// (preventing stack overflow during long sequences of continuation calls).
// Never returns.
[[noreturn]] void CallContinuation(Kernel& k, Thread* thread, Continuation cont);

// switch_context(cont, new_thread): resumes `new_thread` on its preserved
// kernel stack in place of the current thread `old_thread`, changing
// address spaces if necessary. With a non-null `cont`, the current thread's
// registers are NOT saved and the call never returns (the caller blocked
// with a continuation). With a null `cont`, the full register state is
// saved and the call returns — when the calling thread is next scheduled —
// with the thread that was running before it.
Thread* SwitchContext(Kernel& k, Thread* old_thread, Continuation cont, Thread* new_thread);

// thread_syscall_return(value): calls the current thread's user system-call
// continuation, returning to user space with `value`. Never returns.
[[noreturn]] void ThreadSyscallReturn(KernReturn value);

// thread_exception_return(): calls the current thread's user exception
// continuation, returning to user space from an exception, fault or
// preemption. Never returns.
[[noreturn]] void ThreadExceptionReturn();

}  // namespace mkc

#endif  // MACHCONT_SRC_MACHINE_MACHDEP_H_
