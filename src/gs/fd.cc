#include "gs/fd.h"

#include <algorithm>

#include "gs/fd_impl.h"

namespace gs::proto {

net::Payload HeartbeatFrames::frame(std::uint64_t view) {
  const auto it = std::ranges::lower_bound(entries_, view, {}, &Entry::view);
  if (it != entries_.end() && it->view == view) return it->frame;
  net::Payload frame =
      net::Payload::copy_of(build_frame(scratch_, Heartbeat{view}));
  entries_.insert(it, {view, frame});
  std::erase_if(entries_, [](const Entry& e) { return e.frame.unique(); });
  return frame;
}

std::size_t HeartbeatFrames::live() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      entries_, [](const Entry& e) { return !e.frame.unique(); }));
}

std::unique_ptr<FailureDetector> make_failure_detector(FdKind kind,
                                                       FdContext ctx) {
  if (kind == FdKind::kRandomPing)
    return std::make_unique<RandPingFd>(std::move(ctx));
  return std::make_unique<HeartbeatFd>(kind, std::move(ctx));
}

}  // namespace gs::proto
