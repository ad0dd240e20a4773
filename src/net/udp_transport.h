// Real-transport backend: GulfStream frames over nonblocking UDP sockets on
// loopback, behind an epoll event loop.
//
// Addressing: the farm's simulated IPv4 scheme carries over unchanged —
// daemons still elect leaders by gs IP and put gs IPs in every message. What
// changes is delivery: a UdpPortMap assigns each VLAN a contiguous range of
// loopback UDP ports (vlan_base = base_port + index * stride) and each
// endpoint one port inside its VLAN's range. Then:
//  * unicast(dst)  -> sendto(127.0.0.1, port_of(dst));
//  * multicast     -> ONE sendto to the VLAN's beacon group, an
//    administratively scoped IP multicast group 239.255.x.y, where x.y are
//    the two bytes of the VLAN's first port, on that same port. Loopback
//    carries real multicast once the sender picks it with IP_MULTICAST_IF =
//    127.0.0.1 (even though `lo` lacks IFF_MULTICAST). Ranges are disjoint
//    per deployment, so groups are too. The map owns one group socket per
//    VLAN, joined on 127.0.0.1, which hands each datagram to every other
//    member of the VLAN that listens (listen_beacons) from one read and one
//    shared Payload;
//  * received datagrams resolve the sender's gs IP from the source UDP port
//    (every send, multicast too, leaves from the sender's own bound socket).
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

struct sockaddr_in;

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

class UdpTransport;

// Deployment-wide registry mapping the gs addressing scheme onto loopback
// UDP ports: one contiguous port range per VLAN, one port per endpoint.
// Shared by every UdpTransport of a deployment so sends can resolve any
// destination and receives any source. It also owns what the deployment's
// endpoints share: each VLAN's beacon-group socket and the one receive
// buffer every read on the deployment's sockets goes through.
class UdpPortMap {
 public:
  explicit UdpPortMap(std::uint16_t base_port = 47000,
                      std::uint16_t vlan_stride = 256);
  // Closes the group sockets. The EventLoop they were registered with must
  // still be alive, and every transport using the map already destroyed.
  ~UdpPortMap();

  UdpPortMap(const UdpPortMap&) = delete;
  UdpPortMap& operator=(const UdpPortMap&) = delete;

  // Registers an endpoint, assigning the next free port in its VLAN's range
  // (first registration of a VLAN claims the next range). Aborts on an IP
  // already registered: two endpoints cannot share a gs IP.
  std::uint16_t add(util::IpAddress ip, util::VlanId vlan);

  [[nodiscard]] std::optional<std::uint16_t> port_of(util::IpAddress ip) const;
  [[nodiscard]] std::optional<util::IpAddress> ip_of(std::uint16_t port) const;
  // First UDP port of the VLAN's range (registers the VLAN if new); also
  // the beacon group's port. Aborts with a clear message when the new range
  // would run past port 65535 — the map never hands out wrapped, colliding
  // ranges.
  [[nodiscard]] std::uint16_t vlan_base(util::VlanId vlan);
  // How many VLANs fit below port 65536 at this base/stride (72 with the
  // defaults). Lets callers validate a deployment before binding sockets.
  [[nodiscard]] std::size_t max_vlans() const;

 private:
  friend class UdpTransport;

  // A port whose transport installed a receive handler.
  struct Member {
    UdpTransport* transport = nullptr;  // null: left during a delivery
    std::size_t index = 0;              // the transport's port index
    std::uint16_t port = 0;             // its UDP port, to skip the sender
    bool listening = true;              // false: skipped by hand-offs
  };
  struct Vlan {
    std::uint16_t base = 0;
    std::uint16_t endpoints = 0;  // ports handed out in the range
    int group_fd = -1;            // opened by the VLAN's first join
    std::vector<Member> members;
    std::uint32_t delivering = 0;  // nesting depth of on_group_readable
  };

  // Membership of the VLAN's beacon group, kept by UdpTransport as handlers
  // come and go. The first join opens the group socket on `loop`.
  void join(EventLoop& loop, util::VlanId vlan, const Member& member);
  void leave(util::VlanId vlan, const UdpTransport* transport,
             std::size_t index);
  // Flips a member's listen bit in place; safe mid-delivery, as the
  // hand-off loop reads each member afresh.
  void set_listening(util::VlanId vlan, const UdpTransport* transport,
                     std::size_t index, bool listening);
  void on_group_readable(util::VlanId vlan, Vlan& state);

  std::uint16_t base_port_;
  std::uint16_t vlan_stride_;
  std::map<util::VlanId, Vlan> vlans_;  // node-stable: loop callbacks hold
                                        // a Vlan&
  std::map<std::uint32_t, std::uint16_t> port_by_ip_;  // ip bits -> udp port
  std::map<std::uint16_t, util::IpAddress> ip_by_port_;
  EventLoop* loop_ = nullptr;  // the group sockets' loop, set by join()
  // One receive buffer for every read in the deployment (a datagram is
  // copied out of it before any handler runs, and reads never nest), sized
  // for the largest UDP payload. Left uninitialized: a read writes what it
  // returns, and pages no read has reached cost neither set-up time nor
  // resident memory.
  static constexpr std::size_t kRecvBufferSize = 64 * 1024;
  std::unique_ptr<std::uint8_t[]> recv_buf_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBufferSize);
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
                                    // kernel (a multicast is one datagram)
    std::uint64_t bytes_sent = 0;
    // Datagrams from a registered port handed to a receive handler: a
    // group datagram counts once per member port it reaches. A read with
    // no handler installed (daemon not started) is not counted.
    std::uint64_t frames_received = 0;
    std::uint64_t send_errors = 0;   // sendto failures / unknown destination
    // Datagrams dropped for an unregistered source: unicasts to this
    // transport, plus a group datagram once per member port it would reach.
    std::uint64_t recv_unknown = 0;
  };

  // Binds one socket per spec (ports allocated through `map`) and registers
  // them with `loop`. Both must outlive this transport. A port is a member
  // of its VLAN's beacon group while it has a receive handler installed,
  // and gets the group's datagrams while it also listens (the default).
  UdpTransport(EventLoop& loop, UdpPortMap& map,
               std::vector<PortSpec> ports);
  ~UdpTransport() override;

  // The loop's callbacks and the map's group members hold `this`.
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

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
  void listen_beacons(std::size_t port, bool listen) override;
  void set_receive_handler(std::size_t port, ReceiveHandler handler) override;

  // --- Lifecycle ----------------------------------------------------------
  // Models the node dying: every socket is closed and deregistered, every
  // handler dropped and every group left, so a group delivery already under
  // way skips this node; subsequent sends return false, loopback_ok() false.
  // Idempotent. A timer that fires after close() therefore cannot touch a
  // dead fd — the shutdown-ordering contract the regression tests pin.
  void close();
  [[nodiscard]] bool closed() const { return closed_; }

  [[nodiscard]] std::uint16_t udp_port(std::size_t port) const;
  [[nodiscard]] util::VlanId vlan_of(std::size_t port) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend class UdpPortMap;  // hands group datagrams to deliver()

  struct Sock {
    PortSpec spec;
    int fd = -1;
    std::uint16_t udp_port = 0;
    std::uint16_t group_port = 0;  // the VLAN's first port
    bool listening = true;         // carried into the group on join
    ReceiveHandler handler;
  };

  void on_readable(std::size_t index);
  // One datagram to the port's handler, if it has one.
  void deliver(std::size_t index, const Datagram& dgram);
  void send_to(std::size_t index, const sockaddr_in& dst,
               const Payload& frame);

  EventLoop& loop_;
  UdpPortMap& map_;
  std::vector<Sock> socks_;
  Stats stats_;
  bool closed_ = false;
};

}  // namespace gs::net
