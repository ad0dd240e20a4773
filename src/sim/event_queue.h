// Pending-event set for the discrete-event simulator: a hierarchical timing
// wheel that preserves the exact (when, seq) total order of the binary heap
// it replaced (kept as tests/heap_queue.h for differential testing).
//
// Layout: 8 levels x 256 buckets — one level per byte of the 64-bit
// microsecond timestamp, so the wheel spans all of SimTime with no separate
// overflow list. An event is filed by the highest byte in which its deadline
// differs from the wheel's current position (`wheel_now_`): near events land
// at level 0 (1 us tick, one bucket per distinct microsecond mod 256),
// farther ones at coarser levels (level L has a 256^L-us tick). When the
// current bucket is drained the wheel moves to the start of the first
// occupied bucket at the lowest level and, if that bucket is coarse,
// cascades it — each event is refiled against the new position, so it is
// touched at most once per level between push and pop (<= 8 times).
//
// Storage (Varghese & Lauck's intrusive-list wheel): each pending event is
// one node in a slot array, linked into its bucket through 32-bit next/prev
// indices; a bucket is just a {head, tail} pair. cancel() and reschedule()
// unlink the node in O(1), so no dead entry is ever left behind and the
// queue's memory is slot_count() nodes — exactly the high water of
// concurrently pending events. Freed slots are recycled LIFO through the
// same next link; the callback lives in a parallel array and is released
// eagerly at cancel time.
//
// Determinism: the sequence number is a monotonic push counter, so ordering
// of same-timestamp events is stable (FIFO in scheduling order) — which is
// what keeps whole-farm runs bit-for-bit reproducible. Every list is kept in
// (when, seq) order: appends consume fresh seqs, and a cascade replays an
// ordered list into buckets that are provably empty. The one out-of-order
// file, a past deadline clamped into the current bucket, walks back from
// the tail to its (when, seq) place. Pops take the current bucket's head.
//
// reschedule() moves a live event to a new deadline without touching its
// callback: only the generation bumps and the node is refiled with a fresh
// seq. Ordering is exactly as if the event had been cancelled and re-pushed
// — this is the allocation-free heartbeat re-arm fast path (Timer::rearm).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace gs::sim {

// Encodes (slot generation << 32 | slot index + 1); 0 is never a valid id,
// which keeps a default-constructed Timer inert.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Event = std::pair<SimTime, std::function<void()>>;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn at the given absolute time (>= 0); returns a handle usable
  // with cancel()/reschedule(). fn must be non-null.
  EventId push(SimTime when, std::function<void()> fn);

  // Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventId id);

  // Moves a pending event to a new deadline (>= 0), keeping its callback in
  // place — no std::function is destroyed, constructed, or moved. Ordering
  // is exactly as if the event had been cancelled and re-pushed: the move
  // consumes a fresh sequence number. Returns the new id, or 0 if `id` was
  // no longer pending (fired or cancelled); the old id is dead either way.
  EventId reschedule(EventId id, SimTime when);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Time of the earliest pending event. Requires !empty(). A const peek:
  // when the current bucket is drained it scans for the next one (and
  // walks it, if coarse) without moving the wheel.
  [[nodiscard]] SimTime next_time() const;

  // Removes and returns the earliest pending event if its time is
  // <= cutoff; nullopt if the queue is empty or nothing is due. The run
  // loops' one call per event: the peek is the pop. The wheel never moves
  // past the cutoff, so a later push at or after it is never clamped.
  std::optional<Event> pop_due(SimTime cutoff);

  // Removes and returns the earliest pending event. Requires !empty().
  Event pop();

  // Drops every pending event without running it, releasing the callbacks
  // (and whatever their closures pin) immediately. Outstanding EventIds are
  // invalidated by generation bump, so a later cancel() on them is a safe
  // no-op — this is the wall-clock backend's shutdown path.
  void clear();

  // --- Introspection (tests/benches/obs) ----------------------------------
  // Size of the slot pool, i.e. the queue's whole per-event storage. A new
  // slot is made only when every slot is pending, so this *is* the
  // high-water mark of concurrently pending events.
  [[nodiscard]] std::size_t slot_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t high_water() const { return slot_count(); }
  // Nodes reachable from the bucket lists, counted by walking them (and
  // checking each bucket's occupancy bit); equals size() — there is no
  // stale entry. O(buckets + entries): for tests.
  [[nodiscard]] std::size_t entry_count() const;

 private:
  static constexpr int kLevels = 8;       // one per timestamp byte
  static constexpr int kLevelBits = 8;    // 256-way fan-out per level
  static constexpr int kBuckets = 1 << kLevelBits;
  static constexpr std::uint32_t kNil = 0xFFFF'FFFF;

  // One slot. A pending node is linked into bucket `list` (level * kBuckets
  // + byte); a free node has list == kNil and chains the free list through
  // `next`. `gen` bumps on every release and reschedule, killing old ids.
  struct Node {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t next;
    std::uint32_t prev;
    std::uint32_t gen;
    std::uint32_t list;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] static int byte_of(std::uint64_t t, int level) {
    return static_cast<int>((t >> (level * kLevelBits)) & (kBuckets - 1));
  }
  [[nodiscard]] std::uint32_t current_bucket() const {
    return static_cast<std::uint32_t>(
        byte_of(static_cast<std::uint64_t>(wheel_now_), 0));
  }
  [[nodiscard]] bool occupied(std::uint32_t b) const {
    return (occ_[b >> 6] >> (b & 63)) & 1;
  }

  // Slot of a pending event's id, or kNil if the id is dead.
  [[nodiscard]] std::uint32_t pending_slot(EventId id) const;
  // Links a node into the bucket its deadline selects relative to
  // wheel_now_ (past deadlines clamp into the current bucket).
  void file(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  // Returns an unlinked slot to the free list, killing its id.
  void release(std::uint32_t slot);
  // Lowest-level occupied bucket strictly ahead of the wheel's byte at its
  // level, or kNil. With the current bucket drained, it holds the minimum.
  [[nodiscard]] std::uint32_t next_bucket() const;
  // With the current bucket drained: moves the wheel to the start of
  // next_bucket() and cascades it if coarse. Returns false, without moving,
  // if that start lies beyond the cutoff.
  bool advance(SimTime cutoff);

  std::array<Bucket, kLevels * kBuckets> buckets_;
  std::array<std::uint64_t, kLevels * kBuckets / 64> occ_ = {};
  SimTime wheel_now_ = 0;  // time of the current level-0 bucket

  std::vector<Node> nodes_;
  std::vector<std::function<void()>> fns_;  // parallel to nodes_
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace gs::sim
