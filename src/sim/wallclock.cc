#include "sim/wallclock.h"

#include <algorithm>

#include "util/logging.h"

namespace gs::sim {

SimTime WallClock::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  last_now_ = std::max(last_now_, static_cast<SimTime>(us));
  return last_now_;
}

Timer WallClock::at(SimTime when, std::function<void()> fn) {
  const EventId id = queue_.push(std::max(when, now()), std::move(fn));
  return make_timer(id);
}

std::optional<SimTime> WallClock::next_deadline() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.next_time();
}

std::size_t WallClock::run_due() {
  std::size_t n = 0;
  // Cutoff snapshotted up front: a callback that re-arms itself at now()+0
  // runs on the *next* driver pass, not forever within this one.
  const SimTime cutoff = now();
  while (auto ev = queue_.pop_due(cutoff)) {
    ev->second();
    ++executed_;
    ++n;
  }
  return n;
}

void WallClock::install_log_clock() {
  util::Logger::instance().set_clock([this] { return now(); });
}

}  // namespace gs::sim
