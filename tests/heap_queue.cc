#include "tests/heap_queue.h"

#include <algorithm>

namespace gs::sim {

namespace {

constexpr std::uint64_t encode_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

// Compaction triggers only once the stale population both exceeds a floor
// (so small queues never pay a rebuild) and outnumbers the live entries
// (so the O(heap) rebuild amortizes to O(1) per cancel).
constexpr std::size_t kCompactFloor = 64;

}  // namespace

EventId HeapEventQueue::push(SimTime when, std::function<void()> fn) {
  GS_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_;
  high_water_ = std::max(high_water_, live_);
  return encode_id(slot, s.gen);
}

bool HeapEventQueue::cancel(EventId id) {
  if (id == 0) return false;
  const auto slot = static_cast<std::uint32_t>((id & 0xFFFF'FFFFull) - 1);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  release_slot(slot);  // frees the callback (and its captures) eagerly
  GS_CHECK(live_ > 0);
  --live_;
  maybe_compact();
  return true;
}

EventId HeapEventQueue::reschedule(EventId id, SimTime when) {
  if (id == 0) return 0;
  const auto slot = static_cast<std::uint32_t>((id & 0xFFFF'FFFFull) - 1);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return 0;
  Slot& s = slots_[slot];
  ++s.gen;  // the old heap entry is now stale; the callback stays in place
  heap_.push_back(Entry{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  maybe_compact();
  return encode_id(slot, s.gen);
}

void HeapEventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  free_.push_back(slot);
}

void HeapEventQueue::skim_stale() const {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

void HeapEventQueue::maybe_compact() {
  const std::size_t stale_count = heap_.size() - live_;
  if (stale_count < kCompactFloor || stale_count <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

SimTime HeapEventQueue::next_time() const {
  GS_CHECK(!empty());
  skim_stale();
  return heap_.front().when;
}

void HeapEventQueue::clear() {
  heap_.clear();
  free_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
    release_slot(slot);  // gen bump: every outstanding id goes stale
  live_ = 0;
}

HeapEventQueue::Event HeapEventQueue::pop() {
  GS_CHECK(!empty());
  skim_stale();
  GS_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  std::function<void()> fn = std::move(slots_[entry.slot].fn);
  release_slot(entry.slot);
  --live_;
  return {entry.when, std::move(fn)};
}

}  // namespace gs::sim
