// Wall-clock TimeSource: real elapsed time plus a timer wheel, for running
// GulfStream daemons over a real transport.
//
// now() is microseconds of monotonic (steady_clock) time since construction,
// so SimTime arithmetic and every Params duration carry over unchanged from
// the simulator. Timers reuse the simulator's EventQueue — the same
// (when, seq) total order, O(1) unlinking cancellation, and slot
// recycling — but nothing here advances time: the event loop
// (net::EventLoop) calls next_deadline() to size its poll timeout and
// run_due() to fire expired timers. WallClock is single-threaded by
// contract, exactly like Simulator: all scheduling and dispatch happen on
// the loop thread.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/time_source.h"

namespace gs::sim {

class WallClock final : public TimeSource {
 public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}

  WallClock(const WallClock&) = delete;
  WallClock& operator=(const WallClock&) = delete;

  // Microseconds since construction; never decreases (steady_clock is
  // monotonic, and the last reading is latched as a floor besides).
  [[nodiscard]] SimTime now() const override;

  // Schedules fn at an absolute time. Unlike the simulator, a `when` already
  // in the past is legal — real time moves between computing a deadline and
  // arming it — and fires on the next run_due().
  Timer at(SimTime when, std::function<void()> fn) override;

  // --- Driver interface (net::EventLoop) ----------------------------------

  // Earliest pending deadline, or nullopt when no timer is armed.
  [[nodiscard]] std::optional<SimTime> next_deadline() const;

  // Fires every timer whose deadline has passed, in (when, seq) order.
  // Returns the number of callbacks run. Callbacks may re-arm.
  std::size_t run_due();

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // Drops every pending timer without running it (shutdown path: nothing
  // may fire into components that are about to be destroyed). Outstanding
  // Timer handles stay safe to cancel.
  void cancel_all() { queue_.clear(); }

  // Installs this clock as the global logger's timestamp source.
  void install_log_clock();

 protected:
  bool cancel_event(EventId id) override { return queue_.cancel(id); }
  // Same past-deadline clamp as at(): a re-armed deadline the wall clock
  // already passed fires on the next run_due(). The clamp also keeps every
  // deadline at or after the last run_due() cutoff, which is as far as
  // the wheel ever moves, so the queue files it by appending.
  EventId reschedule_event(EventId id, SimTime when) override {
    return queue_.reschedule(id, std::max(when, now()));
  }

 private:
  EventQueue queue_;
  std::chrono::steady_clock::time_point epoch_;
  mutable SimTime last_now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace gs::sim
