// Pending-event set for the discrete-event simulator: a hierarchical timing
// wheel that preserves the exact (when, seq) total order of the binary heap
// it replaced (kept as tests/heap_queue.h for differential testing).
//
// Layout: 8 levels x 256 buckets — one level per byte of the 64-bit
// microsecond timestamp, so the wheel spans all of SimTime with no separate
// overflow list. An event is filed by the highest byte in which its deadline
// differs from the wheel's current position (`wheel_now_`): near events land
// at level 0 (1 us tick, one bucket per distinct microsecond mod 256),
// farther ones at coarser levels (level L has a 256^L-us tick). Advancing to
// the next deadline cascades exactly one coarse bucket down — each entry is
// refiled directly against the new position, so an event is touched at most
// once per level between push and pop (<= 8 times, ~2-3 in practice).
//
// Determinism: the sequence number is a monotonic push counter, so ordering
// of same-timestamp events is stable (FIFO in scheduling order) — which is
// what keeps whole-farm runs bit-for-bit reproducible. The wheel maintains
// the invariant that every live entry at or below the wheel position sits in
// the *current* level-0 bucket; that bucket is sorted by (when, seq) and
// drained through a cursor, so pops come out in exactly the heap's order.
// Entries cascading into a bucket can interleave in seq with entries pushed
// there directly, hence the sort; appends that already respect the tail
// order (the common case) keep the bucket sorted without re-sorting.
//
// Cancellation is lazy and O(1), as before: a cancelled event's entry stays
// in its bucket and is skipped/purged later. Storage is bounded under
// cancel/re-arm churn by the same two mechanisms as the heap:
//  * callback slots are generation-tagged and recycled through a free list,
//    so the slot pool peaks at the maximum number of *concurrently* pending
//    events (the callback — and whatever its closure pins — is released
//    eagerly at cancel time);
//  * when stale (cancelled/superseded) entries outnumber live ones, every
//    bucket is swept in place. Neither sweep nor cascade can change pop
//    order: (when, seq) is a total order and entry keys are never rewritten.
//
// reschedule() moves a live event to a new deadline without releasing its
// callback: the slot keeps its std::function, only the generation bumps and
// a fresh (when, seq) entry is filed. Ordering is exactly as if the event
// had been cancelled and re-pushed — this is the allocation-free heartbeat
// re-arm fast path (sim::Timer::rearm).
#pragma once

#include <cstdint>
#include <functional>
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
  EventQueue();

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

  // Time of the earliest pending (non-cancelled) event. Requires !empty().
  // Const peek: the result is memoized, so back-to-back peeks are O(1); the
  // wheel itself is not restructured.
  [[nodiscard]] SimTime next_time() const;

  // Removes and returns the earliest pending event. Requires !empty().
  std::pair<SimTime, std::function<void()>> pop();

  // Drops every pending event without running it, releasing the callbacks
  // (and whatever their closures pin) immediately. Outstanding EventIds are
  // invalidated by generation bump, so a later cancel() on them is a safe
  // no-op — this is the wall-clock backend's shutdown path.
  void clear();

  // --- Introspection (tests/benches/obs) ----------------------------------
  // Size of the slot pool: peaks at the high-water mark of concurrently
  // pending events, independent of how many were ever pushed.
  [[nodiscard]] std::size_t slot_count() const { return slot_gen_.size(); }
  // Wheel entries, live + stale; bounded at ~2x live by the stale sweep.
  [[nodiscard]] std::size_t entry_count() const { return live_ + stale_; }
  // Historical name from the heap implementation; same bound, kept so churn
  // tests read identically against both implementations.
  [[nodiscard]] std::size_t heap_size() const { return entry_count(); }
  // Maximum number of concurrently live events ever observed.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  static constexpr int kLevels = 8;       // one per timestamp byte
  static constexpr int kLevelBits = 8;    // 256-way fan-out per level
  static constexpr int kBuckets = 1 << kLevelBits;
  static constexpr int kOccWords = kBuckets / 64;

  // An entry does not own the callback — it names a slot plus the generation
  // it was filed under. An entry whose generation no longer matches its slot
  // is stale (the event fired, was cancelled or rescheduled, and the slot
  // may since have been reused).
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  using Bucket = std::vector<Entry>;

  [[nodiscard]] bool stale(const Entry& e) const {
    return slot_gen_[e.slot] != e.gen;
  }
  [[nodiscard]] static int byte_of(std::uint64_t t, int level) {
    return static_cast<int>((t >> (level * kLevelBits)) & (kBuckets - 1));
  }
  [[nodiscard]] Bucket& bucket(int level, int idx) {
    return buckets_[static_cast<std::size_t>(level * kBuckets + idx)];
  }
  [[nodiscard]] const Bucket& bucket(int level, int idx) const {
    return buckets_[static_cast<std::size_t>(level * kBuckets + idx)];
  }
  [[nodiscard]] Bucket& current_bucket() {
    return bucket(0, byte_of(static_cast<std::uint64_t>(wheel_now_), 0));
  }
  [[nodiscard]] const Bucket& current_bucket() const {
    return bucket(0, byte_of(static_cast<std::uint64_t>(wheel_now_), 0));
  }
  void set_occ(int level, int idx) {
    occ_[level][idx >> 6] |= 1ull << (idx & 63);
  }
  void clear_occ(int level, int idx) {
    occ_[level][idx >> 6] &= ~(1ull << (idx & 63));
  }

  // Files an entry into the bucket its deadline selects relative to
  // wheel_now_ (past deadlines clamp into the current bucket).
  void file(const Entry& e);
  // Releases a slot back to the free list, invalidating outstanding ids and
  // wheel entries that reference the old generation.
  void release_slot(std::uint32_t slot);
  // Compacts the current bucket: drops the popped prefix and stale entries,
  // restores (when, seq) sorted order, resets the cursor.
  void prepare_current();
  // Moves the wheel to the next live deadline: retires the drained current
  // bucket, purges buckets the move laps past (provably all-stale), and
  // cascades the one coarse bucket covering the new position.
  void advance();
  // Earliest live deadline strictly ahead of the current bucket. Purges
  // all-stale buckets it visits. Requires live_ > 0.
  SimTime find_min_live();
  // Drops a bucket whose entries are all stale (checked).
  void purge_bucket(int level, int idx);
  // Sweeps stale entries out of every bucket once they dominate.
  void maybe_compact();

  std::vector<Bucket> buckets_;  // kLevels * kBuckets, level-major
  Bucket cascade_scratch_;       // reused by advance(); capacity circulates
  std::uint64_t occ_[kLevels][kOccWords] = {};
  SimTime wheel_now_ = 0;    // time of the bucket the pop cursor sits in
  std::size_t cur_idx_ = 0;  // drain cursor into the current bucket
  bool cur_sorted_ = true;   // current bucket sorted by (when, seq)?

  // The slot pool, split into parallel arrays so the stale check — the one
  // read every entry visit makes — walks a dense 4-byte-stride array that
  // stays cache-resident, instead of dragging the 32-byte callbacks through
  // the cache with it. Index i across the three arrays is one slot: the
  // generation (bumped on every release: fire/cancel/reschedule), the
  // current deadline (for min-cache invalidation), and the callback.
  std::vector<std::uint32_t> slot_gen_;
  std::vector<SimTime> slot_when_;
  std::vector<std::function<void()>> slot_fn_;
  std::vector<std::uint32_t> free_;  // recyclable slot indices
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;   // pending events
  std::size_t stale_ = 0;  // dead entries still physically in buckets
  std::size_t high_water_ = 0;

  mutable SimTime min_when_ = 0;  // memoized next_time()
  mutable bool min_valid_ = false;
};

}  // namespace gs::sim
