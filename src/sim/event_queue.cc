#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace gs::sim {

namespace {

constexpr std::uint64_t encode_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

}  // namespace

std::uint32_t EventQueue::pending_slot(EventId id) const {
  // id 0 decodes to slot kNil, which is never in range.
  const auto slot = static_cast<std::uint32_t>((id & 0xFFFF'FFFFull) - 1);
  if (slot >= nodes_.size() ||
      nodes_[slot].gen != static_cast<std::uint32_t>(id >> 32))
    return kNil;
  return slot;
}

void EventQueue::file(std::uint32_t slot) {
  Node& n = nodes_[slot];
  const auto now_u = static_cast<std::uint64_t>(wheel_now_);
  // A past deadline (a direct queue user may push one) clamps into the
  // current bucket for *positioning* only; the node keeps its true
  // (when, seq) key, so it still pops first.
  const std::uint64_t w = std::max(static_cast<std::uint64_t>(n.when), now_u);
  const std::uint64_t diff = w ^ now_u;
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const auto b =
      static_cast<std::uint32_t>(level * kBuckets + byte_of(w, level));
  Bucket& bucket = buckets_[b];
  // Appends keep every list in (when, seq) order; only the current bucket
  // can receive a node that sorts before its tail (a clamped past deadline),
  // and that node walks back to its place.
  std::uint32_t after = bucket.tail;
  if (diff == 0) {
    while (after != kNil && (nodes_[after].when > n.when ||
                             (nodes_[after].when == n.when &&
                              nodes_[after].seq > n.seq)))
      after = nodes_[after].prev;
  }
  n.list = b;
  n.prev = after;
  if (after == kNil) {
    n.next = bucket.head;
    bucket.head = slot;
  } else {
    n.next = nodes_[after].next;
    nodes_[after].next = slot;
  }
  (n.next == kNil ? bucket.tail : nodes_[n.next].prev) = slot;
  occ_[b >> 6] |= 1ull << (b & 63);
}

void EventQueue::unlink(std::uint32_t slot) {
  const Node& n = nodes_[slot];
  Bucket& bucket = buckets_[n.list];
  (n.prev == kNil ? bucket.head : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? bucket.tail : nodes_[n.next].prev) = n.prev;
  if (bucket.head == kNil) occ_[n.list >> 6] &= ~(1ull << (n.list & 63));
}

void EventQueue::release(std::uint32_t slot) {
  Node& n = nodes_[slot];
  ++n.gen;
  n.list = kNil;
  n.next = free_head_;
  free_head_ = slot;
}

EventId EventQueue::push(SimTime when, std::function<void()> fn) {
  GS_CHECK(fn != nullptr);
  GS_CHECK(when >= 0);
  std::uint32_t slot = free_head_;
  if (slot == kNil) {
    slot = static_cast<std::uint32_t>(nodes_.size());
    GS_CHECK(slot != kNil);
    nodes_.push_back(Node{0, 0, kNil, kNil, 0, kNil});
    fns_.emplace_back();
  } else {
    free_head_ = nodes_[slot].next;
  }
  fns_[slot] = std::move(fn);
  Node& n = nodes_[slot];
  n.when = when;
  n.seq = next_seq_++;
  file(slot);
  ++live_;
  return encode_id(slot, n.gen);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNil) return false;
  fns_[slot] = nullptr;  // frees the callback (and its captures) eagerly
  unlink(slot);
  release(slot);
  --live_;
  return true;
}

EventId EventQueue::reschedule(EventId id, SimTime when) {
  GS_CHECK(when >= 0);
  const std::uint32_t slot = pending_slot(id);
  if (slot == kNil) return 0;
  unlink(slot);
  Node& n = nodes_[slot];
  n.when = when;
  n.seq = next_seq_++;
  ++n.gen;
  file(slot);
  return encode_id(slot, n.gen);
}

std::uint32_t EventQueue::next_bucket() const {
  const auto now_u = static_cast<std::uint64_t>(wheel_now_);
  for (int level = 0; level < kLevels; ++level) {
    // Occupied buckets always sit strictly ahead of the wheel's byte at
    // their level (filing guarantees it, and moving the wheel onto a
    // bucket's byte cascades that bucket); at level 0 this skips the
    // current bucket, which the caller checks first.
    const int start = level * kBuckets + byte_of(now_u, level) + 1;
    const int end = (level + 1) * kBuckets;
    for (int word = start >> 6; word < end >> 6; ++word) {
      std::uint64_t bits = occ_[static_cast<std::size_t>(word)];
      if (word == start >> 6) bits &= ~0ull << (start & 63);
      if (bits != 0)
        return static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits));
    }
  }
  return kNil;
}

bool EventQueue::advance(SimTime cutoff) {
  const std::uint32_t b = next_bucket();
  GS_CHECK(b != kNil);  // live_ > 0 and the current bucket is drained
  const int level = static_cast<int>(b) / kBuckets;
  const int shift = level * kLevelBits;
  // The bucket's first microsecond: the wheel's bytes above `level`, the
  // bucket's byte at it, zeros below. Every level below is empty (b is the
  // lowest occupied), so moving there strands no node behind the wheel.
  const int above_shift = shift + kLevelBits;
  const auto now_u = static_cast<std::uint64_t>(wheel_now_);
  const std::uint64_t above =
      level == kLevels - 1 ? 0 : now_u >> above_shift << above_shift;
  const auto start = static_cast<SimTime>(
      above | (static_cast<std::uint64_t>(b % kBuckets) << shift));
  if (start > cutoff) return false;
  wheel_now_ = start;
  if (level == 0) return true;  // b is now the current bucket
  // Cascade: every node differs from the new position only below `level`,
  // so each lands in a finer bucket — all empty until now, which keeps the
  // replayed (seq-ordered) list in order.
  std::uint32_t slot = buckets_[b].head;
  buckets_[b] = Bucket{};
  occ_[b >> 6] &= ~(1ull << (b & 63));
  while (slot != kNil) {
    const std::uint32_t next = nodes_[slot].next;
    file(slot);
    slot = next;
  }
  return true;
}

SimTime EventQueue::next_time() const {
  GS_CHECK(!empty());
  std::uint32_t slot = buckets_[current_bucket()].head;
  if (slot != kNil) return nodes_[slot].when;
  const std::uint32_t b = next_bucket();
  GS_CHECK(b != kNil);
  slot = buckets_[b].head;
  SimTime best = nodes_[slot].when;
  // A level-0 bucket's nodes share one microsecond; a coarse one is walked.
  if (b >= kBuckets) {
    for (slot = nodes_[slot].next; slot != kNil; slot = nodes_[slot].next)
      best = std::min(best, nodes_[slot].when);
  }
  return best;
}

std::optional<EventQueue::Event> EventQueue::pop_due(SimTime cutoff) {
  for (;;) {
    const std::uint32_t slot = buckets_[current_bucket()].head;
    if (slot != kNil) {
      const SimTime when = nodes_[slot].when;
      if (when > cutoff) return std::nullopt;
      unlink(slot);
      // Moved-from leaves the slot's callback empty, as release requires.
      std::optional<Event> ev(std::in_place, when, std::move(fns_[slot]));
      release(slot);
      --live_;
      return ev;
    }
    if (live_ == 0 || !advance(cutoff)) return std::nullopt;
  }
}

EventQueue::Event EventQueue::pop() {
  auto ev = pop_due(std::numeric_limits<SimTime>::max());
  GS_CHECK(ev.has_value());
  return std::move(*ev);
}

void EventQueue::clear() {
  buckets_.fill(Bucket{});
  occ_.fill(0);
  free_head_ = kNil;
  for (std::uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    fns_[slot] = nullptr;
    release(slot);  // gen bump: every outstanding id goes stale
  }
  live_ = 0;
  // wheel_now_ is retained: a cleared queue can keep scheduling forward.
}

std::size_t EventQueue::entry_count() const {
  std::size_t n = 0;
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    GS_CHECK(occupied(b) == (buckets_[b].head != kNil));
    for (std::uint32_t s = buckets_[b].head; s != kNil; s = nodes_[s].next) ++n;
  }
  return n;
}

}  // namespace gs::sim
