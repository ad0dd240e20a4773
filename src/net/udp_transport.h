// Real-transport backend: GulfStream frames over nonblocking UDP sockets on
// loopback, behind an epoll event loop.
//
// Addressing: the farm's simulated IPv4 scheme carries over unchanged —
// daemons still elect leaders by gs IP and put gs IPs in every message. What
// changes is delivery: a UdpPortMap assigns each VLAN a contiguous range of
// loopback UDP ports (vlan_base = base_port + index * stride) and each
// endpoint one port inside its VLAN's range. Then:
//  * unicast(dst)  -> sendto(127.0.0.1, port_of(dst));
//  * multicast     -> one sendto per *other* registered port in the sender's
//    VLAN range (loopback has no real multicast; IP multicast groups are an
//    optional future mapping, the seam does not care);
//  * received datagrams resolve the sender's gs IP from the source UDP port
//    (every send leaves from the sender's own bound socket).
//
// Threading: single-threaded by contract. The EventLoop interleaves socket
// readiness with the WallClock's due timers on one thread, mirroring the
// simulator's one-event-at-a-time execution model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/transport.h"
#include "sim/wallclock.h"
#include "util/ids.h"
#include "util/ip.h"

namespace gs::net {

// epoll wrapper driving sockets + a WallClock's timer wheel on one thread.
class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers a level-triggered readable callback for fd. The callback must
  // drain the fd (sockets are nonblocking).
  void add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  // One pass: wait for readiness at most `max_wait` (bounded further by the
  // clock's next timer deadline), dispatch readable fds, fire due timers.
  void poll(sim::WallClock& clock, sim::SimDuration max_wait);

  // Polls until `until()` returns true (checked after every pass) or the
  // clock passes `deadline`. A null predicate never terminates early.
  bool run_until(sim::WallClock& clock, sim::SimTime deadline,
                 const std::function<bool()>& until);

  [[nodiscard]] std::size_t fd_count() const { return handlers_.size(); }

 private:
  int epfd_ = -1;
  std::map<int, std::function<void()>> handlers_;
};

// Process-wide registry mapping the gs addressing scheme onto loopback UDP
// ports: one contiguous port range per VLAN, one port per endpoint. Shared
// by every UdpTransport of a deployment so sends can resolve any
// destination and receives any source.
class UdpPortMap {
 public:
  explicit UdpPortMap(std::uint16_t base_port = 47000,
                      std::uint16_t vlan_stride = 256)
      : base_port_(base_port), vlan_stride_(vlan_stride) {}

  // Registers an endpoint, assigning the next free port in its VLAN's range
  // (first registration of a VLAN claims the next range). Idempotent per IP.
  std::uint16_t add(util::IpAddress ip, util::VlanId vlan);

  [[nodiscard]] std::optional<std::uint16_t> port_of(util::IpAddress ip) const;
  [[nodiscard]] std::optional<util::IpAddress> ip_of(std::uint16_t port) const;
  // First UDP port of the VLAN's range (registers the VLAN if new). Aborts
  // with a clear message when the new range would run past port 65535 — the
  // map never hands out wrapped, colliding ranges.
  [[nodiscard]] std::uint16_t vlan_base(util::VlanId vlan);
  // How many VLANs fit below port 65536 at this base/stride (72 with the
  // defaults). Lets callers validate a deployment before binding sockets.
  [[nodiscard]] std::size_t max_vlans() const;
  // Every registered port in the VLAN, ascending — the multicast fan-out.
  [[nodiscard]] const std::vector<std::uint16_t>& vlan_ports(
      util::VlanId vlan) const;

 private:
  std::uint16_t base_port_;
  std::uint16_t vlan_stride_;
  std::map<util::VlanId, std::uint16_t> vlan_bases_;
  std::map<util::VlanId, std::vector<std::uint16_t>> vlan_ports_;
  std::map<std::uint32_t, std::uint16_t> port_by_ip_;  // ip bits -> udp port
  std::map<std::uint16_t, util::IpAddress> ip_by_port_;
  std::vector<std::uint16_t> empty_;
};

// One node's real sockets: a Transport whose ports are bound loopback UDP
// sockets registered with an EventLoop.
class UdpTransport final : public Transport {
 public:
  struct PortSpec {
    util::IpAddress ip;
    util::MacAddress mac;
    util::VlanId vlan;
  };

  struct Stats {
    std::uint64_t frames_sent = 0;  // sendto calls that handed bytes to the
                                    // kernel (multicast counts per receiver)
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t send_errors = 0;   // sendto failures / unknown destination
    std::uint64_t recv_unknown = 0;  // datagrams from an unregistered port
  };

  // Binds one socket per spec (ports allocated through `map`) and registers
  // them with `loop`. Both must outlive this transport.
  UdpTransport(EventLoop& loop, UdpPortMap& map,
               std::vector<PortSpec> ports);
  ~UdpTransport() override;

  // --- Transport ----------------------------------------------------------
  [[nodiscard]] std::size_t port_count() const override {
    return socks_.size();
  }
  [[nodiscard]] util::IpAddress local_ip(std::size_t port) const override;
  [[nodiscard]] util::MacAddress local_mac(std::size_t port) const override;
  bool unicast(std::size_t port, util::IpAddress dst, Payload frame) override;
  bool multicast(std::size_t port, util::IpAddress group,
                 Payload frame) override;
  [[nodiscard]] bool loopback_ok(std::size_t port) const override;
  void set_receive_handler(std::size_t port, ReceiveHandler handler) override;

  // --- Lifecycle ----------------------------------------------------------
  // Models the node dying: every socket is closed and deregistered, every
  // handler dropped; subsequent sends return false, loopback_ok() false.
  // Idempotent. A timer that fires after close() therefore cannot touch a
  // dead fd — the shutdown-ordering contract the regression tests pin.
  void close();
  [[nodiscard]] bool closed() const { return closed_; }

  [[nodiscard]] std::uint16_t udp_port(std::size_t port) const;
  [[nodiscard]] util::VlanId vlan_of(std::size_t port) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Sock {
    PortSpec spec;
    int fd = -1;
    std::uint16_t udp_port = 0;
    ReceiveHandler handler;
  };

  void on_readable(std::size_t index);
  bool send_to_port(std::size_t index, std::uint16_t dst_port,
                    const Payload& frame);

  EventLoop& loop_;
  UdpPortMap& map_;
  std::vector<Sock> socks_;
  // One receive buffer for every read on this transport (a datagram is
  // copied out of it before its handler runs), sized for the largest UDP
  // payload. Left uninitialized: a read writes what it returns, and pages
  // no read has reached cost neither set-up time nor resident memory.
  static constexpr std::size_t kRecvBufferSize = 64 * 1024;
  std::unique_ptr<std::uint8_t[]> recv_buf_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBufferSize);
  Stats stats_;
  bool closed_ = false;
};

}  // namespace gs::net
