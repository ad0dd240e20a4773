#include "gs/daemon.h"

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "wire/frame.h"

namespace gs::proto {

std::string_view to_string(WireStats::Drop reason) {
  switch (reason) {
    case WireStats::Drop::kTooShort: return "too-short";
    case WireStats::Drop::kBadMagic: return "bad-magic";
    case WireStats::Drop::kBadVersion: return "bad-version";
    case WireStats::Drop::kLengthMismatch: return "length-mismatch";
    case WireStats::Drop::kBadChecksum: return "bad-checksum";
    case WireStats::Drop::kDecode: return "decode";
    case WireStats::Drop::kUnknownType: return "unknown-type";
    case WireStats::Drop::kCount_: break;
  }
  return "?";
}

namespace {

WireStats::Drop drop_reason(wire::FrameError error) {
  switch (error) {
    case wire::FrameError::kTooShort: return WireStats::Drop::kTooShort;
    case wire::FrameError::kBadMagic: return WireStats::Drop::kBadMagic;
    case wire::FrameError::kBadVersion: return WireStats::Drop::kBadVersion;
    case wire::FrameError::kLengthMismatch:
      return WireStats::Drop::kLengthMismatch;
    case wire::FrameError::kBadChecksum: return WireStats::Drop::kBadChecksum;
    case wire::FrameError::kNone: break;
  }
  return WireStats::Drop::kTooShort;
}

}  // namespace

GsDaemon::GsDaemon(Options opts)
    : GsDaemonHot(*opts.clock, *opts.params, *opts.transport),
      config_(std::move(opts.node)),
      central_(opts.central),
      root_central_(opts.root_central),
      uplink_index_(opts.uplink_adapter_index),
      heartbeat_frames_(*opts.heartbeat_frames),
      rng_(opts.rng) {
  GS_CHECK_MSG(opts.clock != nullptr && opts.transport != nullptr &&
                   opts.params != nullptr && opts.heartbeat_frames != nullptr,
               "GsDaemon::Options requires clock, transport, params, and "
               "heartbeat_frames");
  const std::size_t ports = transport_.port_count();
  GS_CHECK(ports > 0);
  GS_CHECK(config_.admin_adapter_index < ports);
  outstanding_.resize(ports);

  for (std::size_t i = 0; i < ports; ++i) {
    GS_CHECK_MSG(!transport_.local_ip(i).is_unspecified(),
                 "assign adapter IPs before constructing the daemon");

    MemberInfo self;
    self.ip = transport_.local_ip(i);
    self.mac = transport_.local_mac(i);
    self.node = config_.node;
    // §2.2: beacons on the administrative adapter of an eligible node carry
    // the central-eligibility flag.
    self.central_eligible =
        config_.central_eligible && i == config_.admin_adapter_index;

    AdapterProtocol::NetIface net;
    net.unicast = [this, i](util::IpAddress to, net::Payload frame) {
      return transport_.unicast(i, to, std::move(frame));
    };
    net.beacon_multicast = [this, i](net::Payload frame) {
      return transport_.multicast(i, net::kBeaconGroup, std::move(frame));
    };
    net.listen_beacons = [this, i](bool listen) {
      transport_.listen_beacons(i, listen);
    };
    net.loopback_ok = [this, i] { return transport_.loopback_ok(i); };

    AdapterProtocol::Hooks hooks;
    hooks.on_report_pending = [this, i] { report_pending(i); };
    hooks.on_reset = [this, i] {
      outstanding_[i].reset();
      if (i == config_.admin_adapter_index) {
        last_gsc_ = util::IpAddress();
        if (central_ && central_->active()) central_->deactivate();
      }
      if (uplink_index_ && i == *uplink_index_) last_root_ = util::IpAddress();
    };
    if (i == config_.admin_adapter_index) {
      hooks.on_committed = [this](const MembershipView& view) {
        on_admin_committed(view);
      };
    } else if (uplink_index_ && i == *uplink_index_) {
      hooks.on_committed = [this](const MembershipView& view) {
        on_uplink_committed(view);
      };
    }

    protocols_.push_back(std::make_unique<AdapterProtocol>(
        sim_, params_, heartbeat_frames_, self, std::move(net),
        std::move(hooks), rng_.fork(0xAD0 + i)));
  }
}

GsDaemon::~GsDaemon() {
  start_timer_.cancel();
  report_retry_timer_.cancel();
  report_refresh_timer_.cancel();
  if (started_) {
    for (std::size_t i = 0; i < protocols_.size(); ++i)
      transport_.set_receive_handler(i, nullptr);
  }
}

AdapterProtocol& GsDaemon::protocol(std::size_t index) {
  GS_CHECK(index < protocols_.size());
  return *protocols_[index];
}

const AdapterProtocol& GsDaemon::protocol(std::size_t index) const {
  GS_CHECK(index < protocols_.size());
  return *protocols_[index];
}

util::IpAddress GsDaemon::gsc_ip() const {
  const AdapterProtocol& admin = *protocols_[config_.admin_adapter_index];
  if (!admin.is_committed()) return util::IpAddress();
  return admin.leader_ip();
}

void GsDaemon::start() {
  GS_CHECK(!started_);
  started_ = true;
  const sim::SimDuration skew =
      params_.start_skew_max > 0 ? rng_.range(0, params_.start_skew_max) : 0;
  start_timer_ = sim_.after(skew, [this] { on_started(); });
}

void GsDaemon::on_started() {
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    transport_.set_receive_handler(
        i, [this, i](const net::Datagram& dgram) { dispatch(i, dgram); });
    if (!halted_) protocols_[i]->start();
  }
  if (!halted_) arm_report_refresh();
}

void GsDaemon::halt() {
  GS_CHECK_MSG(started_, "halt before start");
  if (halted_) return;
  halted_ = true;
  if (central_ != nullptr && central_->active()) central_->deactivate();
  if (root_central_ != nullptr && root_central_->active())
    root_central_->deactivate();
  if (uplink_ != nullptr) uplink_->halt();
  for (auto& proto : protocols_) proto->shutdown();
  for (auto& outstanding : outstanding_) outstanding.reset();
  report_retry_timer_.cancel();
  report_refresh_timer_.cancel();
  last_gsc_ = util::IpAddress();
  last_root_ = util::IpAddress();
}

void GsDaemon::resume() {
  if (!halted_) return;
  halted_ = false;
  if (uplink_ != nullptr) uplink_->resume();
  for (auto& proto : protocols_) proto->restart();
  arm_report_refresh();
}

void GsDaemon::dispatch(std::size_t index, const net::Datagram& dgram) {
  // The transport calls this once the host has had its processing delay
  // (the fabric adds δ to each delivery; a real host supplies it).
  if (halted_) return;
  // Envelope verification is cached on the shared payload: the first
  // receiver of a multicast pays the CRC, the rest read the stored verdict.
  const wire::VerifiedFrame verified = dgram.payload.verified();
  if (!verified.ok()) {
    ++frames_dropped_;
    ++wire_stats_.dropped[static_cast<std::size_t>(drop_reason(verified.error))];
    GS_LOG(kDebug, "daemon") << config_.name << " dropped frame: "
                             << wire::to_string(verified.error);
    return;
  }
  const auto type = static_cast<MsgType>(verified.type);
  const FrameRef frame(dgram.payload.frame_payload(), &dgram.payload);

  HandleResult result;
  if (type == MsgType::kMembershipReport) {
    std::optional<MembershipReport> scratch;
    const MembershipReport* rep = frame.get(scratch);
    if (rep != nullptr) handle_report_frame(dgram.src, *rep);
    result = rep != nullptr ? HandleResult::kHandled : HandleResult::kDecodeError;
  } else if (type == MsgType::kReportAck) {
    std::optional<ReportAck> scratch;
    const ReportAck* ack = frame.get(scratch);
    if (ack != nullptr) handle_report_ack(*ack);
    result = ack != nullptr ? HandleResult::kHandled : HandleResult::kDecodeError;
  } else if (type == MsgType::kDomainReport) {
    std::optional<DomainReport> scratch;
    const DomainReport* rep = frame.get(scratch);
    if (rep != nullptr) handle_domain_report_frame(index, dgram.src, *rep);
    result = rep != nullptr ? HandleResult::kHandled : HandleResult::kDecodeError;
  } else if (type == MsgType::kDomainReportAck) {
    std::optional<DomainReportAck> scratch;
    const DomainReportAck* ack = frame.get(scratch);
    if (ack != nullptr && uplink_ != nullptr) uplink_->handle_ack(*ack);
    result = ack != nullptr ? HandleResult::kHandled : HandleResult::kDecodeError;
  } else {
    result = protocols_[index]->handle_frame(dgram.src, type, frame);
  }

  switch (result) {
    case HandleResult::kHandled:
      ++wire_stats_.decoded[static_cast<std::size_t>(verified.type) %
                            WireStats::kTypeSlots];
      break;
    case HandleResult::kDecodeError:
      // A verified envelope whose typed payload would not decode: counted
      // per receiver, exactly like envelope drops.
      ++frames_dropped_;
      ++wire_stats_.dropped[static_cast<std::size_t>(WireStats::Drop::kDecode)];
      GS_LOG(kDebug, "daemon") << config_.name << " dropped "
                               << to_string(type) << ": payload decode failed";
      break;
    case HandleResult::kUnknownType:
      ++frames_dropped_;
      ++wire_stats_
            .dropped[static_cast<std::size_t>(WireStats::Drop::kUnknownType)];
      break;
  }
}

void GsDaemon::handle_report_frame(util::IpAddress src,
                                   const MembershipReport& rep) {
  if (central_ == nullptr || !central_->active()) return;
  central_->handle_report(src, rep, [this, src](const ReportAck& ack) {
    if (src == admin_ip()) {
      // The reporting leader lives on this very node: loop back.
      handle_report_ack(ack);
      return;
    }
    transport_.unicast(config_.admin_adapter_index, src,
                       net::Payload::copy_of(build_frame(scratch_, ack)));
  });
}

void GsDaemon::handle_domain_report_frame(std::size_t index,
                                          util::IpAddress src,
                                          const DomainReport& rep) {
  if (root_central_ == nullptr || !root_central_->active()) return;
  root_central_->handle_domain_report(
      src, rep, [this, index, src](const DomainReportAck& ack) {
        if (src == transport_.local_ip(index)) {
          // The reporting uplink lives on this very node: loop back.
          if (uplink_ != nullptr) uplink_->handle_ack(ack);
          return;
        }
        transport_.unicast(index, src,
                           net::Payload::copy_of(build_frame(scratch_, ack)));
      });
}

util::IpAddress GsDaemon::uplink_root_ip() const {
  if (!uplink_index_) return util::IpAddress();
  const AdapterProtocol& up = *protocols_[*uplink_index_];
  if (!up.is_committed()) return util::IpAddress();
  return up.leader_ip();
}

void GsDaemon::send_domain_report(const DomainReport& rep) {
  if (!uplink_index_) return;
  const util::IpAddress root = uplink_root_ip();
  if (root.is_unspecified()) return;  // uplink AMG not formed yet; retried
  const util::IpAddress self = transport_.local_ip(*uplink_index_);
  if (root == self) {
    // This node is itself the root GSC: deliver without the network.
    handle_domain_report_frame(*uplink_index_, self, rep);
    return;
  }
  transport_.unicast(*uplink_index_, root,
                     net::Payload::copy_of(build_frame(scratch_, rep)));
}

void GsDaemon::handle_report_ack(const ReportAck& ack) {
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    AdapterProtocol& proto = *protocols_[i];
    if (proto.self().ip != ack.leader) continue;
    if (!outstanding_[i] || outstanding_[i]->seq != ack.seq) return;
    outstanding_[i].reset();
    obs::emit_trace(params_.trace,
                    ack.need_full ? obs::TraceKind::kReportNeedFull
                                  : obs::TraceKind::kReportAcked,
                    sim_.now(), proto.self().ip, {}, ack.seq, 0, {},
                    config_.node);
    if (ack.need_full) {
      proto.mark_need_full();
      report_pending(i);
    } else {
      proto.report_acked(ack.seq);
    }
    return;
  }
}

void GsDaemon::report_pending(std::size_t index) {
  if (halted_) return;
  AdapterProtocol& proto = *protocols_[index];
  if (!proto.is_leader() || !proto.is_committed()) return;
  OutstandingReport out;
  out.report = proto.build_report();
  out.seq = out.report.seq;
  out.frame = net::Payload::copy_of(build_frame(scratch_, out.report));
  outstanding_[index] = std::move(out);
  try_send_report(index);
  arm_report_retry();
}

void GsDaemon::try_send_report(std::size_t index) {
  if (!outstanding_[index]) return;
  const util::IpAddress gsc = gsc_ip();
  if (gsc.is_unspecified()) return;  // admin AMG not formed yet; retried

  ++reports_sent_;
  obs::emit_trace(params_.trace, obs::TraceKind::kReportSent, sim_.now(),
                  protocols_[index]->self().ip, gsc, outstanding_[index]->seq,
                  outstanding_[index]->report.full ? 1 : 0, {}, config_.node);
  if (gsc == admin_ip()) {
    // This node hosts GulfStream Central: deliver without the network.
    if (central_ != nullptr && central_->active()) {
      central_->handle_report(
          gsc, outstanding_[index]->report,
          [this](const ReportAck& ack) { handle_report_ack(ack); });
    }
    return;
  }
  transport_.unicast(config_.admin_adapter_index, gsc,
                     outstanding_[index]->frame);
}

void GsDaemon::arm_report_retry() {
  if (report_retry_timer_.armed()) return;
  report_retry_timer_ =
      sim_.after(params_.report_retry, [this] { report_retry_tick(); });
}

void GsDaemon::report_retry_tick() {
  report_retry_timer_ = sim::Timer();
  bool any = false;
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    if (!outstanding_[i]) continue;
    if (!protocols_[i]->is_leader()) {
      outstanding_[i].reset();  // demoted: the new leader reports for us
      continue;
    }
    any = true;
    obs::emit_trace(params_.trace, obs::TraceKind::kReportRetry, sim_.now(),
                    protocols_[i]->self().ip, gsc_ip(), outstanding_[i]->seq,
                    0, {}, config_.node);
    try_send_report(i);
  }
  if (any) arm_report_retry();
}

void GsDaemon::arm_report_refresh() {
  if (params_.report_refresh <= 0) return;
  report_refresh_timer_ =
      sim_.after(params_.report_refresh, [this] { report_refresh_tick(); });
}

void GsDaemon::report_refresh_tick() {
  report_refresh_timer_ = sim::Timer();
  if (halted_) return;
  // Re-establish each hosted group's lease at the GSC, even when nothing
  // changed: silence is indistinguishable from a whole group dying at once.
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    if (outstanding_[i]) continue;  // a report is already in flight
    if (!protocols_[i]->is_leader() || !protocols_[i]->is_committed()) continue;
    // Refreshes are full snapshots: soft state re-asserted wholesale, so a
    // member claim the GSC fenced off (or lost to a stale report) heals on
    // the next cycle without any rejection/renegotiation machinery.
    protocols_[i]->mark_need_full();
    report_pending(i);
  }
  arm_report_refresh();
}

void GsDaemon::on_admin_committed(const MembershipView& view) {
  if (halted_) return;
  const util::IpAddress gsc = view.leader().ip;
  const bool self_leads = gsc == admin_ip();

  if (central_ != nullptr) {
    if (self_leads && config_.central_eligible) {
      central_->activate(gsc);
    } else if (central_->active()) {
      central_->deactivate();
    }
  }

  // Root-tier nodes' admin adapter sits on the root VLAN: winning that AMG
  // makes this node both its tier's GSC and the farm's root GSC.
  if (root_central_ != nullptr) {
    if (self_leads && config_.central_eligible) {
      if (!root_central_->active()) root_central_->activate(gsc);
    } else if (root_central_->active()) {
      root_central_->deactivate();
    }
  }

  if (gsc != last_gsc_) {
    last_gsc_ = gsc;
    // A new GulfStream Central starts empty: every hosted AMG leader must
    // re-establish its group with a full report.
    for (std::size_t i = 0; i < protocols_.size(); ++i) {
      if (!protocols_[i]->is_leader() || !protocols_[i]->is_committed())
        continue;
      protocols_[i]->mark_need_full();
      report_pending(i);
    }
  }
}

void GsDaemon::on_uplink_committed(const MembershipView& view) {
  if (halted_) return;
  const util::IpAddress root = view.leader().ip;
  if (root == last_root_) return;
  last_root_ = root;
  // A new root Central starts empty: re-establish the domain with a full
  // digest (mirrors the leaders' full-report re-send on GSC change).
  if (uplink_ != nullptr) uplink_->on_root_changed();
}

}  // namespace gs::proto
