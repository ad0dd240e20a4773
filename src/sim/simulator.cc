#include "sim/simulator.h"

#include "util/check.h"
#include "util/logging.h"

namespace gs::sim {

Timer Simulator::at(SimTime when, std::function<void()> fn) {
  GS_CHECK_MSG(when >= now_, "cannot schedule in the past");
  const EventId id = queue_.push(when, std::move(fn));
  return make_timer(id);
}

bool Simulator::cancel_event(EventId id) { return queue_.cancel(id); }

EventId Simulator::reschedule_event(EventId id, SimTime when) {
  GS_CHECK_MSG(when >= now_, "cannot reschedule into the past");
  return queue_.reschedule(id, when);
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (auto ev = queue_.pop_due(deadline)) {
    now_ = ev->first;
    ev->second();
    ++executed_;
    ++n;
  }
  if (now_ < deadline && deadline != std::numeric_limits<SimTime>::max())
    now_ = deadline;
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [when, fn] = queue_.pop();
  now_ = when;
  fn();
  ++executed_;
  return true;
}

void Simulator::install_log_clock() {
  util::Logger::instance().set_clock([this] { return now_; });
}

}  // namespace gs::sim
