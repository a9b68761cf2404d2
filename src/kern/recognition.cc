#include "src/kern/recognition.h"

#include "src/base/panic.h"

namespace mkc {

void RecognitionTable::Register(Continuation fn,
                                RecognitionHandoffHandler on_handoff,
                                RecognitionWakeupHandler on_wakeup) {
  MKC_ASSERT(fn != nullptr);
  MKC_ASSERT(on_handoff != nullptr || on_wakeup != nullptr);
  for (const auto& e : entries_) {
    if (e.fn == fn) {
      Panic("recognition table: duplicate registration for a continuation");
    }
  }
  RecognitionEntry entry;
  entry.fn = fn;
  entry.on_handoff = on_handoff;
  entry.on_wakeup = on_wakeup;
  entries_.push_back(entry);
  if (on_wakeup != nullptr) {
    ++wakeup_handlers_;
  }
}

void RecognitionTable::Unregister(Continuation fn) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fn == fn) {
      if (it->on_wakeup != nullptr) {
        --wakeup_handlers_;
      }
      entries_.erase(it);
      return;
    }
  }
}

void RecognitionTable::ResetCounts() {
  for (auto& e : entries_) {
    e.handoff_hits = 0;
    e.wakeup_hits = 0;
    e.declines = 0;
  }
}

}  // namespace mkc
