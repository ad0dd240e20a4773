#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <span>

#include "util/check.h"
#include "util/logging.h"

namespace gs::net {

namespace {

// Poll granularity cap: epoll timeouts are milliseconds, and run_until()'s
// predicate must be re-checked even when no packet or timer wakes us.
constexpr sim::SimDuration kMaxPollSlice = sim::milliseconds(50);

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// The VLAN's beacon group: 239.255.x.y on port x.y, the VLAN's first port.
sockaddr_in group_addr(std::uint16_t vlan_base) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(vlan_base);
  addr.sin_addr.s_addr = htonl(0xEFFF0000u | vlan_base);
  return addr;
}

}  // namespace

// --- EventLoop -------------------------------------------------------------

EventLoop::EventLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  GS_CHECK_MSG(epfd_ >= 0, "epoll_create1 failed");
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) ::close(epfd_);
}

void EventLoop::add_fd(int fd, std::function<void()> on_readable) {
  GS_CHECK(fd >= 0 && on_readable != nullptr);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  const int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  GS_CHECK_MSG(rc == 0, "epoll_ctl(ADD) failed");
  handlers_[fd] = std::move(on_readable);
}

void EventLoop::remove_fd(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::poll(sim::WallClock& clock, sim::SimDuration max_wait) {
  sim::SimDuration wait = std::clamp<sim::SimDuration>(max_wait, 0,
                                                       kMaxPollSlice);
  if (const auto deadline = clock.next_deadline()) {
    wait = std::clamp<sim::SimDuration>(*deadline - clock.now(), 0, wait);
  }
  // Round up so a timer due in 300us does not busy-spin on 0ms timeouts.
  const int timeout_ms =
      static_cast<int>((wait + sim::kMillisecond - 1) / sim::kMillisecond);

  std::array<epoll_event, 64> events;
  const int n = ::epoll_wait(epfd_, events.data(),
                             static_cast<int>(events.size()), timeout_ms);
  for (int i = 0; i < n; ++i) {
    // Re-resolved per event: an earlier handler in this batch may have
    // removed (or closed) this fd; a removed fd's events are stale.
    const auto it = handlers_.find(events[static_cast<std::size_t>(i)].data.fd);
    if (it == handlers_.end()) continue;
    const std::function<void()> handler = it->second;  // survives self-removal
    handler();
  }
  clock.run_due();
}

bool EventLoop::run_until(sim::WallClock& clock, sim::SimTime deadline,
                          const std::function<bool()>& until) {
  while (true) {
    clock.run_due();
    if (until != nullptr && until()) return true;
    const sim::SimTime now = clock.now();
    if (now >= deadline) return false;
    poll(clock, deadline - now);
  }
}

// --- UdpPortMap ------------------------------------------------------------

UdpPortMap::UdpPortMap(std::uint16_t base_port, std::uint16_t vlan_stride)
    : base_port_(base_port), vlan_stride_(vlan_stride) {}

UdpPortMap::~UdpPortMap() {
  for (auto& [vlan, state] : vlans_) {
    if (state.group_fd < 0) continue;
    loop_->remove_fd(state.group_fd);
    ::close(state.group_fd);
  }
}

std::size_t UdpPortMap::max_vlans() const {
  return (65536u - std::uint32_t{base_port_}) / std::uint32_t{vlan_stride_};
}

std::uint16_t UdpPortMap::vlan_base(util::VlanId vlan) {
  const auto it = vlans_.find(vlan);
  if (it != vlans_.end()) return it->second.base;
  // Computed in 32 bits: the old 16-bit arithmetic wrapped silently once the
  // range ran past port 65535 (~72 VLANs at the default base/stride), and
  // the wrapped bases collided with earlier VLANs' ports.
  const auto index = static_cast<std::uint32_t>(vlans_.size());
  const std::uint32_t base =
      std::uint32_t{base_port_} + index * std::uint32_t{vlan_stride_};
  const std::uint32_t last = base + std::uint32_t{vlan_stride_} - 1u;
  GS_CHECK_MSG(last <= 65535u,
               "UDP port space exhausted: this VLAN's port range would run "
               "past 65535 — lower base_port, shrink vlan_stride, or run "
               "fewer VLANs per process (see UdpPortMap::max_vlans)");
  vlans_[vlan].base = static_cast<std::uint16_t>(base);
  return static_cast<std::uint16_t>(base);
}

std::uint16_t UdpPortMap::add(util::IpAddress ip, util::VlanId vlan) {
  GS_CHECK(!ip.is_unspecified());
  GS_CHECK_MSG(!port_of(ip).has_value(),
               "duplicate gs IP: another endpoint of this deployment already "
               "holds it");
  const std::uint16_t base = vlan_base(vlan);
  Vlan& state = vlans_[vlan];
  GS_CHECK_MSG(state.endpoints < vlan_stride_,
               "VLAN UDP port range full; raise vlan_stride");
  const auto port = static_cast<std::uint16_t>(base + state.endpoints++);
  port_by_ip_.emplace(ip.bits(), port);
  ip_by_port_.emplace(port, ip);
  return port;
}

std::optional<std::uint16_t> UdpPortMap::port_of(util::IpAddress ip) const {
  const auto it = port_by_ip_.find(ip.bits());
  if (it == port_by_ip_.end()) return std::nullopt;
  return it->second;
}

std::optional<util::IpAddress> UdpPortMap::ip_of(std::uint16_t port) const {
  const auto it = ip_by_port_.find(port);
  if (it == ip_by_port_.end()) return std::nullopt;
  return it->second;
}

void UdpPortMap::join(EventLoop& loop, util::VlanId vlan,
                      const Member& member) {
  GS_CHECK_MSG(loop_ == nullptr || loop_ == &loop,
               "one UdpPortMap serves one EventLoop");
  loop_ = &loop;
  Vlan& state = vlans_.at(vlan);
  state.members.push_back(member);
  if (state.group_fd >= 0) return;

  // No SO_REUSEADDR: a second socket on this group fails the bind loudly
  // instead of splitting its datagrams.
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  GS_CHECK_MSG(fd >= 0, "socket() failed");
  const sockaddr_in group = group_addr(state.base);
  int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&group),
                  sizeof(group));
  GS_CHECK_MSG(rc == 0, "bind(beacon group) failed — port range in use?");
  ip_mreq mreq{};
  mreq.imr_multiaddr = group.sin_addr;
  mreq.imr_interface.s_addr = htonl(INADDR_LOOPBACK);
  rc = ::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq));
  GS_CHECK_MSG(rc == 0, "IP_ADD_MEMBERSHIP on 127.0.0.1 failed");
  state.group_fd = fd;
  loop.add_fd(fd, [this, vlan, &state] { on_group_readable(vlan, state); });
}

void UdpPortMap::leave(util::VlanId vlan, const UdpTransport* transport,
                       std::size_t index) {
  Vlan& state = vlans_.at(vlan);
  const auto it = std::find_if(
      state.members.begin(), state.members.end(), [&](const Member& m) {
        return m.transport == transport && m.index == index;
      });
  if (it == state.members.end()) return;
  // Mid-delivery the hand-off loop is indexing the vector: leave a hole it
  // skips, and let the loop compact once it is done.
  if (state.delivering > 0) {
    it->transport = nullptr;
  } else {
    state.members.erase(it);
  }
}

void UdpPortMap::set_listening(util::VlanId vlan,
                               const UdpTransport* transport,
                               std::size_t index, bool listening) {
  for (Member& m : vlans_.at(vlan).members)
    if (m.transport == transport && m.index == index) m.listening = listening;
}

void UdpPortMap::on_group_readable(util::VlanId vlan, Vlan& state) {
  while (true) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(state.group_fd, recv_buf_.get(), kRecvBufferSize, 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        GS_LOG(kDebug, "udp") << "recvfrom(group): " << std::strerror(errno);
      }
      return;
    }
    const std::uint16_t src_port = ntohs(src.sin_port);
    const auto src_ip = src.sin_addr.s_addr == htonl(INADDR_LOOPBACK)
                            ? ip_of(src_port)
                            : std::nullopt;
    if (!src_ip) {
      // Not part of this deployment: every listener would have dropped it.
      for (const Member& m : state.members)
        if (m.transport != nullptr && m.listening)
          ++m.transport->stats_.recv_unknown;
      continue;
    }

    // One copy, one Payload: its decode-once cache serves every receiver,
    // as a multicast does on the simulator.
    const Datagram dgram{
        *src_ip, kBeaconGroup, /*multicast=*/true, vlan,
        Payload::copy_of(std::span<const std::uint8_t>(
            recv_buf_.get(), static_cast<std::size_t>(n)))};
    // A handler may close any transport (leave() then punches a hole),
    // install a handler (join() appends) or flip a listen bit in place:
    // index the vector, copy each member out before calling it, and stop
    // at the members present when the datagram arrived.
    ++state.delivering;
    const std::size_t count = state.members.size();
    for (std::size_t i = 0; i < count; ++i) {
      const Member m = state.members[i];
      if (m.transport == nullptr || !m.listening || m.port == src_port)
        continue;
      m.transport->deliver(m.index, dgram);
    }
    if (--state.delivering == 0) {
      std::erase_if(state.members,
                    [](const Member& m) { return m.transport == nullptr; });
    }
  }
}

// --- UdpTransport ----------------------------------------------------------

UdpTransport::UdpTransport(EventLoop& loop, UdpPortMap& map,
                           std::vector<PortSpec> ports)
    : loop_(loop), map_(map) {
  GS_CHECK(!ports.empty());
  socks_.reserve(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    Sock sock;
    sock.spec = ports[i];
    sock.udp_port = map_.add(sock.spec.ip, sock.spec.vlan);
    sock.group_port = map_.vlan_base(sock.spec.vlan);

    sock.fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    GS_CHECK_MSG(sock.fd >= 0, "socket() failed");
    // No SO_REUSEADDR: with it two sockets can both bind 127.0.0.1:P, so an
    // overlapping port range would steal frames instead of failing here.
    const sockaddr_in addr = loopback_addr(sock.udp_port);
    int rc = ::bind(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
    GS_CHECK_MSG(rc == 0, "bind(127.0.0.1) failed — port range in use?");
    // Beacons leave from this socket too, so their source port still names
    // the sender; loopback is the interface the group is joined on.
    const in_addr loopback{htonl(INADDR_LOOPBACK)};
    const unsigned char loop_on = 1;
    rc = ::setsockopt(sock.fd, IPPROTO_IP, IP_MULTICAST_IF, &loopback,
                      sizeof(loopback));
    if (rc == 0) {
      rc = ::setsockopt(sock.fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop_on,
                        sizeof(loop_on));
    }
    GS_CHECK_MSG(rc == 0, "IP_MULTICAST_IF/LOOP on 127.0.0.1 failed");

    socks_.push_back(std::move(sock));
    loop_.add_fd(socks_.back().fd, [this, i] { on_readable(i); });
  }
}

UdpTransport::~UdpTransport() { close(); }

void UdpTransport::close() {
  if (closed_) return;
  closed_ = true;
  for (std::size_t i = 0; i < socks_.size(); ++i) {
    Sock& sock = socks_[i];
    if (sock.fd < 0) continue;
    if (sock.handler != nullptr) map_.leave(sock.spec.vlan, this, i);
    loop_.remove_fd(sock.fd);
    ::close(sock.fd);
    sock.fd = -1;
    sock.handler = nullptr;
  }
}

util::IpAddress UdpTransport::local_ip(std::size_t port) const {
  GS_CHECK(port < socks_.size());
  return socks_[port].spec.ip;
}

util::MacAddress UdpTransport::local_mac(std::size_t port) const {
  GS_CHECK(port < socks_.size());
  return socks_[port].spec.mac;
}

std::uint16_t UdpTransport::udp_port(std::size_t port) const {
  GS_CHECK(port < socks_.size());
  return socks_[port].udp_port;
}

util::VlanId UdpTransport::vlan_of(std::size_t port) const {
  GS_CHECK(port < socks_.size());
  return socks_[port].spec.vlan;
}

bool UdpTransport::loopback_ok(std::size_t port) const {
  GS_CHECK(port < socks_.size());
  return !closed_ && socks_[port].fd >= 0;
}

void UdpTransport::set_receive_handler(std::size_t port,
                                       ReceiveHandler handler) {
  GS_CHECK(port < socks_.size());
  if (closed_) return;
  Sock& sock = socks_[port];
  const bool was_member = sock.handler != nullptr;
  sock.handler = std::move(handler);
  const bool member = sock.handler != nullptr;
  if (member && !was_member) {
    map_.join(loop_, sock.spec.vlan,
              {this, port, sock.udp_port, sock.listening});
  } else if (was_member && !member) {
    map_.leave(sock.spec.vlan, this, port);
  }
}

void UdpTransport::listen_beacons(std::size_t port, bool listen) {
  GS_CHECK(port < socks_.size());
  Sock& sock = socks_[port];
  sock.listening = listen;
  if (sock.handler != nullptr)
    map_.set_listening(sock.spec.vlan, this, port, listen);
}

void UdpTransport::send_to(std::size_t index, const sockaddr_in& dst,
                           const Payload& frame) {
  const auto bytes = frame.bytes();
  const ssize_t n =
      ::sendto(socks_[index].fd, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  if (n < 0) {
    // Matches the wire model: a full socket buffer (or a receiver that went
    // away) is in-flight loss, which a real sender cannot observe.
    ++stats_.send_errors;
    return;
  }
  ++stats_.frames_sent;
  stats_.bytes_sent += static_cast<std::uint64_t>(n);
}

bool UdpTransport::unicast(std::size_t port, util::IpAddress dst,
                           Payload frame) {
  GS_CHECK(port < socks_.size());
  if (closed_ || socks_[port].fd < 0) return false;
  const auto dst_port = map_.port_of(dst);
  if (!dst_port) {
    // No such endpoint registered — the unreachable-receiver case.
    ++stats_.send_errors;
    return true;
  }
  send_to(port, loopback_addr(*dst_port), frame);
  return true;
}

bool UdpTransport::multicast(std::size_t port, util::IpAddress group,
                             Payload frame) {
  GS_CHECK(port < socks_.size());
  (void)group;  // one beacon group per VLAN, named by the VLAN's range
  if (closed_ || socks_[port].fd < 0) return false;
  // The group socket skips the sender's port, so this never self-delivers.
  send_to(port, group_addr(socks_[port].group_port), frame);
  return true;
}

void UdpTransport::on_readable(std::size_t index) {
  Sock& sock = socks_[index];
  while (sock.fd >= 0) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(sock.fd, map_.recv_buf_.get(), UdpPortMap::kRecvBufferSize,
                   0, reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        GS_LOG(kDebug, "udp") << "recvfrom: " << std::strerror(errno);
      }
      return;
    }
    const auto src_ip = map_.ip_of(ntohs(src.sin_port));
    if (!src_ip) {
      ++stats_.recv_unknown;  // not part of this deployment — drop
      continue;
    }
    if (sock.handler == nullptr) continue;  // daemon not started yet

    Datagram dgram;
    dgram.src = *src_ip;
    dgram.dst = sock.spec.ip;
    dgram.vlan = sock.spec.vlan;
    // Copied out before the handler runs, so the buffer is free for the
    // next read; small frames land in a pooled inline payload.
    dgram.payload = Payload::copy_of(std::span<const std::uint8_t>(
        map_.recv_buf_.get(), static_cast<std::size_t>(n)));
    // The handler may halt the daemon or close this transport mid-loop;
    // the `sock.fd >= 0` guard re-checks before the next recvfrom.
    deliver(index, dgram);
  }
}

void UdpTransport::deliver(std::size_t index, const Datagram& dgram) {
  Sock& sock = socks_[index];
  if (sock.handler == nullptr) return;
  ++stats_.frames_received;
  sock.handler(dgram);
}

}  // namespace gs::net
