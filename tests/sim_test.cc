// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "tests/heap_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gs::sim {
namespace {

// --- EventQueue ------------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(10, [] {});
  q.push(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelReleasesCallbackStateEagerly) {
  // FD timers capture payload-sized state; a cancelled event must not pin
  // it until the stale heap entry happens to surface.
  EventQueue q;
  auto token = std::make_shared<int>(42);
  const EventId id = q.push(1'000'000, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, StaleIdOnReusedSlotCannotCancelNewEvent) {
  EventQueue q;
  const EventId old_id = q.push(10, [] {});
  q.pop().second();  // slot goes back to the free list
  bool ran = false;
  const EventId new_id = q.push(20, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);  // same slot, different generation
  EXPECT_FALSE(q.cancel(old_id));
  q.pop().second();
  EXPECT_TRUE(ran);
}

// A naive reference queue: linear scan for the earliest live event, FIFO
// among equal times by push order. Matches the production heap event for
// event, including across compactions.
class NaiveQueue {
 public:
  std::size_t push(SimTime when) {
    entries_.push_back({when, next_label_++, true});
    return entries_.back().label;
  }
  bool cancel(std::size_t label) {
    for (auto& e : entries_)
      if (e.label == label && e.live) {
        e.live = false;
        return true;
      }
    return false;
  }
  [[nodiscard]] bool empty() const {
    for (const auto& e : entries_)
      if (e.live) return false;
    return true;
  }
  std::pair<SimTime, std::size_t> pop() {
    Entry* best = nullptr;
    for (auto& e : entries_)
      if (e.live && (best == nullptr || e.when < best->when)) best = &e;
    EXPECT_NE(best, nullptr);
    best->live = false;
    return {best->when, best->label};
  }

 private:
  struct Entry {
    SimTime when;
    std::size_t label;
    bool live;
  };
  std::vector<Entry> entries_;
  std::size_t next_label_ = 0;
};

TEST(EventQueue, FdChurnKeepsSlotPoolBoundedAndMatchesReference) {
  // The failure detector's hot pattern: every heartbeat arrival cancels and
  // re-arms a suspicion timer. Under this churn the slot pool must stay at
  // the high-water mark of *concurrently* pending events (not grow per
  // event ever pushed), the wheel must hold no dead entries, and pop order
  // must match the naive reference event for event.
  constexpr std::size_t kAdapters = 64;
  constexpr int kIterations = 50'000;
  util::Rng rng(0xC0FFEE);
  EventQueue q;
  NaiveQueue ref;
  std::vector<std::size_t> popped_real, popped_ref;

  SimTime now = 0;
  struct Armed {
    EventId id = 0;
    std::size_t label = 0;
    bool live = false;
  };
  std::vector<Armed> timers(kAdapters);

  auto arm = [&](std::size_t adapter) {
    const SimTime when = now + 1000 + static_cast<SimTime>(rng.below(5000));
    const std::size_t label = ref.push(when);
    const EventId id = q.push(when, [&popped_real, label] {
      popped_real.push_back(label);
    });
    timers[adapter] = Armed{id, label, true};
  };

  for (std::size_t a = 0; a < kAdapters; ++a) arm(a);
  for (int i = 0; i < kIterations; ++i) {
    const std::size_t a = rng.below(kAdapters);
    if (rng.chance(0.9)) {
      // "Heartbeat arrived": cancel + re-arm.
      if (timers[a].live) {
        EXPECT_TRUE(q.cancel(timers[a].id));
        EXPECT_TRUE(ref.cancel(timers[a].label));
      }
      arm(a);
    } else if (!q.empty()) {
      // "Suspicion timer fired": pop one event on both sides, advance time.
      const auto [ref_when, ref_label] = ref.pop();
      EXPECT_EQ(q.next_time(), ref_when);
      auto [when, fn] = q.pop();
      EXPECT_EQ(when, ref_when);
      now = std::max(now, when);
      fn();
      ASSERT_EQ(popped_real.back(), ref_label);
      popped_ref.push_back(ref_label);
      for (auto& t : timers)
        if (t.live && t.label == ref_label) t.live = false;
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(
                            std::count_if(timers.begin(), timers.end(),
                                          [](const Armed& t) { return t.live; })));
  }

  // Slot pool bounded by concurrent high-water (kAdapters plus slack for
  // the pop-before-rearm window), not by ~50k events ever pushed.
  EXPECT_LE(q.slot_count(), kAdapters + 8);
  // Cancel unlinks: the wheel holds exactly the live events, not one entry
  // per event ever pushed.
  EXPECT_EQ(q.entry_count(), q.size());

  while (!q.empty()) {
    auto [when, fn] = q.pop();
    (void)when;
    fn();
  }
  while (!ref.empty()) popped_ref.push_back(ref.pop().second);

  // Event-for-event identical pop order against the naive reference.
  ASSERT_EQ(popped_real.size(), popped_ref.size());
  EXPECT_EQ(popped_real, popped_ref);
}

// The failure detector's re-arm at the farm's own deadline: every
// heartbeat moves the sender's suspicion timer +1.25 s out (hb_period
// 500 ms x hb_sensitivity 2 + 250 ms), with cancels, and timers that are
// not re-armed in time fire. Re-arm and cancel unlink the event, so after
// every operation the wheel's lists hold exactly the pending events, the
// slot pool stays at the concurrent high water, and pops match the
// reference heap's one for one.
TEST(EventQueue, RearmChurnLeavesNoStaleEntries) {
  constexpr std::size_t kTimers = 64;
  constexpr int kOps = 50'000;
  constexpr SimTime kSuspect = 1'250'000;
  util::Rng rng(0xFD'DEAD11);
  EventQueue wheel;
  HeapEventQueue heap;
  std::vector<std::size_t> popped_wheel, popped_heap;
  struct Armed {
    EventId wheel = 0;
    EventId heap = 0;
  };
  std::vector<Armed> timers(kTimers);
  std::size_t next_label = 0;
  SimTime now = 0;

  auto check = [&] {
    ASSERT_EQ(wheel.size(), heap.size());
    ASSERT_EQ(wheel.entry_count(), wheel.size());
    ASSERT_LE(wheel.slot_count(), kTimers + 8);
  };
  auto rearm = [&](std::size_t t) {
    const SimTime when = now + kSuspect;
    Armed& a = timers[t];
    a.wheel = wheel.reschedule(a.wheel, when);
    a.heap = heap.reschedule(a.heap, when);
    ASSERT_EQ(a.wheel == 0, a.heap == 0);
    if (a.wheel != 0) return;
    const std::size_t label = next_label++;
    a.wheel = wheel.push(
        when, [&popped_wheel, label] { popped_wheel.push_back(label); });
    a.heap = heap.push(
        when, [&popped_heap, label] { popped_heap.push_back(label); });
  };

  for (std::size_t t = 0; t < kTimers; ++t) rearm(t);
  for (int i = 0; i < kOps; ++i) {
    // ~20 ms per step: a timer is re-armed about every 1.4 s on average,
    // so a good share of deadlines expire before their next heartbeat.
    now += static_cast<SimTime>(rng.below(40'000));
    while (!heap.empty() && heap.next_time() <= now) {
      ASSERT_EQ(wheel.next_time(), heap.next_time());
      auto [wheel_when, wheel_fn] = wheel.pop();
      auto [heap_when, heap_fn] = heap.pop();
      ASSERT_EQ(wheel_when, heap_when);
      wheel_fn();
      heap_fn();
      ASSERT_EQ(popped_wheel.back(), popped_heap.back());
      check();
    }
    ASSERT_FALSE(!wheel.empty() && wheel.next_time() <= now);
    const std::size_t t = rng.below(kTimers);
    if (rng.chance(0.1)) {
      ASSERT_EQ(wheel.cancel(timers[t].wheel), heap.cancel(timers[t].heap));
    } else {
      rearm(t);
    }
    check();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(popped_wheel, popped_heap);
  EXPECT_GT(popped_wheel.size(), 1000u);  // deadlines really did expire
}

// pop_due is the run loops' peek and pop in one call: it hands out only
// events due by the cutoff and leaves later ones, and anything pushed
// afterwards at or past the cutoff still pops in (when, seq) order.
TEST(EventQueue, PopDueStopsAtCutoff) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(10); });
  q.push(20, [&] { order.push_back(20); });
  q.push(300'000, [&] { order.push_back(300'000); });
  auto ev = q.pop_due(15);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->first, 10);
  ev->second();
  EXPECT_FALSE(q.pop_due(15).has_value());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 20);
  q.push(15, [&] { order.push_back(15); });
  q.push(20, [&] { order.push_back(21); });  // same time, later seq
  while (auto due = q.pop_due(299'999)) due->second();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.pop_due(0).has_value());
  q.pop_due(std::numeric_limits<SimTime>::max())->second();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_due(std::numeric_limits<SimTime>::max()).has_value());
  EXPECT_EQ(order, (std::vector<int>{10, 15, 20, 21, 300'000}));
}

// Drives the timing wheel and the reference heap with one randomized stream
// of push / cancel / reschedule / pop / pop_due / clear operations and demands
// pop-for-pop equality — the order contract the golden traces rest on.
// Deadlines deliberately mix the heartbeat range with cascade-hostile
// values: exact level-rollover boundaries, their neighbours, far-future
// overflow, and past deadlines (which the wheel clamps into the current
// bucket but must still order by true (when, seq)).
TEST(EventQueue, WheelMatchesHeapUnderRandomizedChurn) {
  util::Rng rng(0xD1CE5EED);
  EventQueue wheel;
  HeapEventQueue heap;
  std::vector<std::size_t> popped_wheel, popped_heap;

  struct LivePair {
    EventId wheel_id = 0;
    EventId heap_id = 0;
  };
  std::vector<LivePair> live;
  std::size_t next_label = 0;
  SimTime now = 0;

  auto pick_when = [&]() -> SimTime {
    switch (rng.below(8)) {
      case 0:  // exact level-0 rollover (bucket boundary at byte 0)
        return ((now >> 8) + 1 + static_cast<SimTime>(rng.below(3))) << 8;
      case 1:  // exact level-1 rollover, +/- one tick
        return (((now >> 16) + 1) << 16) + static_cast<SimTime>(rng.below(3)) -
               1;
      case 2:  // deep-level crossing
        return (((now >> 24) + 1) << 24) + static_cast<SimTime>(rng.below(2));
      case 3:  // far-future overflow (top levels)
        return now + (static_cast<SimTime>(1) << (30 + rng.below(20)));
      case 4:  // already in the past: clamped filing, true-key ordering
        return now <= 0 ? 0 : static_cast<SimTime>(rng.below(
                                  static_cast<std::uint64_t>(now) + 1));
      default:  // heartbeat-ish near range
        return now + 1 + static_cast<SimTime>(rng.below(50'000));
    }
  };
  auto push_both = [&](SimTime when) {
    LivePair p;
    const std::size_t label = next_label++;
    p.wheel_id = wheel.push(
        when, [&popped_wheel, label] { popped_wheel.push_back(label); });
    p.heap_id = heap.push(
        when, [&popped_heap, label] { popped_heap.push_back(label); });
    live.push_back(p);
  };
  auto pop_both = [&] {
    ASSERT_EQ(wheel.next_time(), heap.next_time());
    auto [wheel_when, wheel_fn] = wheel.pop();
    auto [heap_when, heap_fn] = heap.pop();
    ASSERT_EQ(wheel_when, heap_when);
    wheel_fn();
    heap_fn();
    ASSERT_EQ(popped_wheel.back(), popped_heap.back());
    now = std::max(now, wheel_when);
  };

  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t op = rng.below(100);
    if (op < 40) {
      push_both(pick_when());
    } else if (op < 55 && !live.empty()) {
      const std::size_t k = rng.below(live.size());
      // Equal verdicts even when the pick is already dead (popped).
      ASSERT_EQ(wheel.cancel(live[k].wheel_id), heap.cancel(live[k].heap_id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op < 70 && !live.empty()) {
      const std::size_t k = rng.below(live.size());
      const SimTime when = pick_when();
      const EventId w = wheel.reschedule(live[k].wheel_id, when);
      const EventId h = heap.reschedule(live[k].heap_id, when);
      ASSERT_EQ(w == 0, h == 0);  // both dead or both moved
      if (w == 0) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        live[k] = LivePair{w, h};
      }
    } else if (op < 90) {
      ASSERT_EQ(wheel.empty(), heap.empty());
      if (!wheel.empty()) pop_both();
    } else if (op < 99) {
      // The run loops' call: pop only what is due by a cutoff that may fall
      // short of, on, or past the next deadline (and its bucket's start).
      const SimTime cutoff = now + static_cast<SimTime>(rng.below(70'000));
      auto w = wheel.pop_due(cutoff);
      auto h = heap.pop_due(cutoff);
      ASSERT_EQ(w.has_value(), h.has_value());
      if (w) {
        ASSERT_EQ(w->first, h->first);
        w->second();
        h->second();
        ASSERT_EQ(popped_wheel.back(), popped_heap.back());
        now = std::max(now, w->first);
      }
    } else {
      wheel.clear();
      heap.clear();
      // Every outstanding handle is dead on both sides.
      for (const LivePair& p : live) {
        EXPECT_FALSE(wheel.cancel(p.wheel_id));
        EXPECT_FALSE(heap.cancel(p.heap_id));
      }
      live.clear();
    }
    ASSERT_EQ(wheel.size(), heap.size());
  }

  // SimTime extremes survive filing and drain in identical order.
  push_both(std::numeric_limits<SimTime>::max());
  push_both(std::numeric_limits<SimTime>::max() - 1);
  push_both(std::numeric_limits<SimTime>::max());
  while (!wheel.empty()) pop_both();
  EXPECT_TRUE(heap.empty());
  ASSERT_EQ(popped_wheel.size(), popped_heap.size());
  EXPECT_EQ(popped_wheel, popped_heap);
}

// Deterministic cascade-boundary pin: events parked exactly at level
// rollovers (byte-0 wrap, byte-1 wrap, deeper), one tick on either side,
// plus far-future and SimTime-max extremes, interleaved with pops so the
// wheel actually crosses the boundaries while entries are resident.
TEST(EventQueue, CascadeBoundariesMatchHeap) {
  EventQueue wheel;
  HeapEventQueue heap;
  std::vector<std::size_t> popped_wheel, popped_heap;
  std::size_t next_label = 0;
  auto push_both = [&](SimTime when) {
    const std::size_t label = next_label++;
    wheel.push(when,
               [&popped_wheel, label] { popped_wheel.push_back(label); });
    heap.push(when, [&popped_heap, label] { popped_heap.push_back(label); });
  };

  const SimTime kMax = std::numeric_limits<SimTime>::max();
  const std::vector<SimTime> boundaries = {
      (1 << 8) - 1, 1 << 8, (1 << 8) + 1,       // level-0 wrap
      (1 << 16) - 1, 1 << 16, (1 << 16) + 1,    // level-1 wrap
      (1 << 24) - 1, 1 << 24, (1 << 24) + 1,    // level-2 wrap
      (SimTime{1} << 40) - 1, SimTime{1} << 40,  // deep level
      kMax - 1, kMax,
  };
  // Same-time duplicates must pop FIFO across the whole span.
  for (SimTime t : boundaries) push_both(t);
  for (SimTime t : boundaries) push_both(t);

  // Drain half, forcing the wheel across the low boundaries, then file more
  // events relative to the advanced position (including equal-time inserts
  // behind already-resident coarse entries).
  for (int i = 0; i < 12; ++i) {
    ASSERT_FALSE(wheel.empty());
    ASSERT_EQ(wheel.next_time(), heap.next_time());
    auto [ww, wf] = wheel.pop();
    auto [hw, hf] = heap.pop();
    ASSERT_EQ(ww, hw);
    wf();
    hf();
  }
  push_both((1 << 24) + 2);              // ahead of the wheel, fine level
  push_both((SimTime{1} << 40) - 2);     // just before a resident boundary
  push_both(0);                          // past deadline: clamped filing
  while (!wheel.empty()) {
    ASSERT_EQ(wheel.next_time(), heap.next_time());
    auto [ww, wf] = wheel.pop();
    auto [hw, hf] = heap.pop();
    ASSERT_EQ(ww, hw);
    wf();
    hf();
  }
  EXPECT_TRUE(heap.empty());
  ASSERT_EQ(popped_wheel.size(), popped_heap.size());
  EXPECT_EQ(popped_wheel, popped_heap);
}

// --- Simulator ----------------------------------------------------------------------

TEST(Simulator, TimeAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.after(seconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, seconds(5));
  EXPECT_EQ(sim.now(), seconds(5));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.after(seconds(1), [&] { fired++; });
  sim.after(seconds(10), [&] { fired++; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.after(seconds(1), [&] {
    times.push_back(sim.now());
    sim.after(seconds(1), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{seconds(1), seconds(2)}));
}

TEST(Simulator, TimerCancel) {
  Simulator sim;
  bool ran = false;
  Timer t = sim.after(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(t.cancel());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, TimerMoveAssignCancelsOverwrittenEvent) {
  // Overwriting a live Timer by move-assignment cancels the old event — it
  // must not leak and fire later. (The WallClock backend has the same pin
  // in realtime_test.cc.)
  Simulator sim;
  int first = 0, second = 0;
  Timer t = sim.after(10, [&] { ++first; });
  t = sim.after(20, [&] { ++second; });
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, TimerMoveConstructLeavesSourceInert) {
  Simulator sim;
  int fired = 0;
  Timer a = sim.after(10, [&] { ++fired; });
  Timer b = std::move(a);
  EXPECT_FALSE(a.cancel());  // moved-from: inert, owns nothing
  EXPECT_TRUE(b.cancel());   // ownership transferred intact
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  Timer t = sim.after(seconds(1), [] {});
  sim.run();
  EXPECT_FALSE(t.cancel());
}

TEST(Simulator, DefaultTimerIsInert) {
  Timer t;
  EXPECT_FALSE(t.armed());
  EXPECT_FALSE(t.cancel());
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.after(1, [&] { fired++; });
  sim.after(2, [&] { fired++; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ExecutedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, PeriodicSelfRescheduling) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 10) sim.after(seconds(1), tick);
  };
  sim.after(seconds(1), tick);
  sim.run_until(seconds(100));
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), seconds(100));
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1);
  EXPECT_EQ(seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
}

}  // namespace
}  // namespace gs::sim
