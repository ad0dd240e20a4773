// The original binary-heap pending-event set, kept as the *reference
// implementation* for the timing-wheel EventQueue (sim/event_queue.h).
//
// Ordering is the (when, seq) total order both implementations promise: the
// sequence number is a monotonic push counter, so same-timestamp events pop
// FIFO in scheduling order. The differential tests in tests/sim_test.cc
// drive this heap and the wheel with identical operation streams and demand
// pop-for-pop equality. It lives with the tests, in the test-only
// gs_heap_ref library, so the shipped simulator never compiles it; it
// exists so the wheel's claim of byte-identical traces is checkable
// forever, not just on the change that introduced it.
//
// Cancellation here is lazy, unlike the wheel's (which unlinks the node):
//  * callback slots are generation-tagged and recycled through a free list,
//    so the slot pool peaks at the maximum number of *concurrently* pending
//    events (the callback is released eagerly at cancel time);
//  * a cancelled or rescheduled event leaves a stale heap entry behind, and
//    when stale entries outnumber live ones the heap is compacted and
//    rebuilt. Rebuilding cannot change pop order: (when, seq) is a total
//    order, so any heap layout pops identically.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace gs::sim {

// Encodes (slot generation << 32 | slot index + 1); 0 is never a valid id,
// which keeps a default-constructed Timer inert. Shared with the wheel so
// the two implementations are drop-in interchangeable in tests.
using EventId = std::uint64_t;

class HeapEventQueue {
 public:
  using Event = std::pair<SimTime, std::function<void()>>;

  HeapEventQueue() = default;

  HeapEventQueue(const HeapEventQueue&) = delete;
  HeapEventQueue& operator=(const HeapEventQueue&) = delete;

  // Schedules fn at the given absolute time; returns a handle usable with
  // cancel()/reschedule(). fn must be non-null.
  EventId push(SimTime when, std::function<void()> fn);

  // Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventId id);

  // Moves a pending event to a new deadline, keeping its callback (no
  // std::function is destroyed or constructed). Ordering is exactly as if
  // the event had been cancelled and re-pushed: the move consumes a fresh
  // sequence number. Returns the new id, or 0 if `id` was no longer
  // pending (fired or cancelled) — the old id is dead either way.
  EventId reschedule(EventId id, SimTime when);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Time of the earliest pending (non-cancelled) event. Requires !empty().
  // Const peek: stale entries blocking the top are skimmed through mutable
  // storage (logical constness — the pop order is unaffected).
  [[nodiscard]] SimTime next_time() const;

  // Removes and returns the earliest pending event if its time is
  // <= cutoff; nullopt if the queue is empty or nothing is due.
  std::optional<Event> pop_due(SimTime cutoff) {
    if (empty() || next_time() > cutoff) return std::nullopt;
    return pop();
  }

  // Removes and returns the earliest pending event. Requires !empty().
  Event pop();

  // Drops every pending event without running it, releasing the callbacks
  // (and whatever their closures pin) immediately. Outstanding EventIds are
  // invalidated by generation bump, so a later cancel() on them is a safe
  // no-op.
  void clear();

  // --- Introspection (tests/benches) -------------------------------------
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  // A heap entry does not own the callback — it names a slot plus the
  // generation it was pushed under. An entry whose generation no longer
  // matches its slot is stale (the event fired, was cancelled, or was
  // rescheduled, and the slot may since have been reused).
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  struct Slot {
    std::uint32_t gen = 0;  // bumped on every release (fire or cancel)
    std::function<void()> fn;
  };

  [[nodiscard]] bool stale(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }
  void release_slot(std::uint32_t slot);
  void skim_stale() const;
  void maybe_compact();

  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // recyclable slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace gs::sim
