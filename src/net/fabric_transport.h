// Transport backend over the simulated switched network.
//
// A thin per-node adapter-id table in front of net::Fabric: every call maps
// a port index to the AdapterId the farm builder wired for that node and
// forwards verbatim, so the seam refactor is behavior-neutral for the sim —
// same fabric calls, same delivery order, byte-identical golden traces.
#pragma once

#include <vector>

#include "net/fabric.h"
#include "net/transport.h"
#include "util/check.h"
#include "util/ids.h"

namespace gs::net {

class FabricTransport final : public Transport {
 public:
  FabricTransport(Fabric& fabric, std::vector<util::AdapterId> adapters)
      : fabric_(fabric), adapters_(std::move(adapters)) {}

  [[nodiscard]] std::size_t port_count() const override {
    return adapters_.size();
  }

  [[nodiscard]] util::IpAddress local_ip(std::size_t port) const override {
    return fabric_.adapter(id(port)).ip();
  }

  [[nodiscard]] util::MacAddress local_mac(std::size_t port) const override {
    return fabric_.adapter(id(port)).mac();
  }

  bool unicast(std::size_t port, util::IpAddress dst,
               Payload frame) override {
    return fabric_.send(id(port), dst, std::move(frame));
  }

  bool multicast(std::size_t port, util::IpAddress group,
                 Payload frame) override {
    return fabric_.multicast(id(port), group, std::move(frame));
  }

  void listen_beacons(std::size_t port, bool listen) override {
    fabric_.adapter(id(port)).set_in_beacon_group(listen);
  }

  [[nodiscard]] bool loopback_ok(std::size_t port) const override {
    return fabric_.adapter(id(port)).loopback_ok();
  }

  void set_receive_handler(std::size_t port, ReceiveHandler handler) override {
    fabric_.adapter(id(port)).set_receive_handler(std::move(handler));
  }

  // The fabric adapter behind a port (sim-only introspection: the farm and
  // tests correlate daemon ports with ground-truth topology through this).
  [[nodiscard]] util::AdapterId adapter_id(std::size_t port) const {
    return id(port);
  }

 private:
  [[nodiscard]] util::AdapterId id(std::size_t port) const {
    GS_CHECK(port < adapters_.size());
    return adapters_[port];
  }

  Fabric& fabric_;
  std::vector<util::AdapterId> adapters_;
};

}  // namespace gs::net
