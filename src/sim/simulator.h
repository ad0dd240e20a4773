// The discrete-event simulator driving every simulated run.
//
// Single-threaded by design: determinism is the property everything else in
// this repository leans on. Components schedule callbacks through the
// TimeSource seam (`after()` / `at()`) and hold the returned Timer to cancel
// or re-arm (heartbeat suspicion timers re-arm on every arrival).
// run_until() advances simulated time; nothing here touches the wall clock.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/time_source.h"

namespace gs::sim {

class Simulator final : public TimeSource {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const override { return now_; }

  // Schedules fn at an absolute simulated time (>= now).
  Timer at(SimTime when, std::function<void()> fn) override;

  // Runs events until the queue drains or simulated time would pass
  // `deadline`; time is left at min(deadline, last event time). Returns the
  // number of events executed.
  std::size_t run_until(SimTime deadline);

  // Runs until the queue drains (caller must guarantee termination, e.g. no
  // self-rescheduling periodic timers).
  std::size_t run() { return run_until(std::numeric_limits<SimTime>::max()); }

  // Executes at most one event. Returns false if none is pending.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  // Deadline of the earliest pending event. Requires !idle().
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  // Event-core occupancy for the obs health sampler (sim.queue.* gauges).
  [[nodiscard]] std::size_t queue_slots() const { return queue_.slot_count(); }
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_.high_water();
  }

  // Installs this simulator as the global logger's timestamp source.
  void install_log_clock();

 protected:
  bool cancel_event(EventId id) override;
  EventId reschedule_event(EventId id, SimTime when) override;

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace gs::sim
