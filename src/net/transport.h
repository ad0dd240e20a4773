// The network seam a GulfStream daemon does I/O through.
//
// A Transport is one *node's* view of the network: an indexed set of local
// ports (one per hosted network adapter) that can unicast on their VLAN,
// multicast to the VLAN's beacon group, run the §3 loopback self-test, and
// deliver received datagrams to a per-port handler. Two backends exist:
//  * FabricTransport — the simulated switched network (net::Fabric) driven
//    by sim::Simulator; byte-identical to the pre-seam wiring.
//  * UdpTransport — real nonblocking UDP sockets on loopback behind an
//    epoll event loop, VLANs mapped to port ranges (net/udp_transport.h).
// The protocol stack (GsDaemon, AdapterProtocol, Amg, Fd, Central) runs
// unmodified over either.
#pragma once

#include <cstddef>
#include <functional>

#include "net/datagram.h"
#include "util/ip.h"

namespace gs::net {

class Transport {
 public:
  using ReceiveHandler = std::function<void(const Datagram&)>;

  virtual ~Transport() = default;

  // Number of local ports (adapters) this node has. Port indices below are
  // always < port_count().
  [[nodiscard]] virtual std::size_t port_count() const = 0;

  // The port's current IP/MAC. The IP is read live: reconfiguration (e.g.
  // Central rewriting a switch port) may change it mid-run.
  [[nodiscard]] virtual util::IpAddress local_ip(std::size_t port) const = 0;
  [[nodiscard]] virtual util::MacAddress local_mac(std::size_t port) const = 0;

  // Unicast to dst on the port's VLAN. Returns false only if the frame
  // never left the adapter (sender dead/closed); in-flight loss still
  // returns true, as a real sender cannot observe it.
  virtual bool unicast(std::size_t port, util::IpAddress dst,
                       Payload frame) = 0;

  // Multicast to every other port of the port's VLAN that is in the VLAN's
  // beacon group when the frame is sent (the simulator) or read off the
  // group socket (UDP). The sender need not be in the group.
  virtual bool multicast(std::size_t port, util::IpAddress group,
                         Payload frame) = 0;

  // Joins (true) or leaves (false) the port's VLAN beacon group. Every
  // port starts in it; the daemon keeps it there exactly while the
  // adapter's protocol beacons or collects beacons (§2.1: once an AMG has
  // formed, only its leader listens).
  virtual void listen_beacons(std::size_t port, bool listen) = 0;

  // The §3 loopback self-test: can this port still hear itself?
  [[nodiscard]] virtual bool loopback_ok(std::size_t port) const = 0;

  // Installs (or, with nullptr, removes) the port's delivery callback.
  virtual void set_receive_handler(std::size_t port,
                                   ReceiveHandler handler) = 0;
};

}  // namespace gs::net

namespace gs {
// The seam name the design docs use, mirroring gs::TimeSource.
using Transport = net::Transport;
}  // namespace gs
