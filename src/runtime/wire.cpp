#include "runtime/wire.hpp"

#include <algorithm>

#include "afg/graph.hpp"
#include "common/error.hpp"

namespace vdce::rt::wire {

using common::ParseError;
using common::WireReader;
using common::WireWriter;

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kMonitorReport: return "monitor_report";
    case MsgType::kWorkloadUpdate: return "workload_update";
    case MsgType::kLivenessChange: return "liveness_change";
    case MsgType::kNetworkMeasurement: return "network_measurement";
    case MsgType::kRescheduleRequest: return "reschedule_request";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kTickRequest: return "tick_request";
    case MsgType::kHostSelectionRequest: return "host_selection_request";
    case MsgType::kHostSelectionResponse: return "host_selection_response";
    case MsgType::kReselectionRequest: return "reselection_request";
    case MsgType::kReselectionResponse: return "reselection_response";
    case MsgType::kRecordTaskTime: return "record_task_time";
    case MsgType::kShutdownRequest: return "shutdown_request";
    case MsgType::kAck: return "ack";
    case MsgType::kErrorReply: return "error_reply";
    case MsgType::kPeerDigest: return "peer_digest";
    case MsgType::kGossipPing: return "gossip_ping";
    case MsgType::kGossipAck: return "gossip_ack";
    case MsgType::kPingReq: return "ping_req";
    case MsgType::kPingReqReply: return "ping_req_reply";
    case MsgType::kPeerRoster: return "peer_roster";
    case MsgType::kRefute: return "refute";
  }
  return "unknown";
}

namespace {

WireWriter header(MsgType type) {
  WireWriter w;
  w.write_u8(kMagic);
  w.write_u8(kVersion);
  w.write_u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Checks the header and positions a reader at the payload.  The
/// expected type guards against routing bugs (a frame dispatched to
/// the wrong decoder fails loudly instead of misparsing).
WireReader payload_reader(std::span<const std::byte> frame,
                          MsgType expected) {
  const MsgType got = peek_type(frame);
  if (got != expected) {
    throw ParseError(std::string("control message type mismatch: expected ") +
                     to_string(expected) + ", got " + to_string(got));
  }
  return WireReader(frame.subspan(3));
}

void write_selection(WireWriter& w, const sched::HostSelection& s) {
  w.write_u32(static_cast<std::uint32_t>(s.hosts.size()));
  for (const common::HostId h : s.hosts) w.write_u32(h.value());
  w.write_f64(s.predicted_s);
  w.write_u32(static_cast<std::uint32_t>(s.scored.size()));
  for (const auto& [t, h] : s.scored) {
    w.write_f64(t);
    w.write_u32(h.value());
  }
}

sched::HostSelection read_selection(WireReader& r) {
  sched::HostSelection s;
  const std::uint32_t hosts = r.read_count(4);
  s.hosts.reserve(hosts);
  for (std::uint32_t i = 0; i < hosts; ++i) {
    s.hosts.emplace_back(r.read_u32());
  }
  s.predicted_s = r.read_f64();
  const std::uint32_t scored = r.read_count(12);
  s.scored.reserve(scored);
  for (std::uint32_t i = 0; i < scored; ++i) {
    const double t = r.read_f64();
    s.scored.emplace_back(t, common::HostId(r.read_u32()));
  }
  return s;
}

}  // namespace

MsgType peek_type(std::span<const std::byte> frame) {
  if (frame.size() < 3) {
    throw ParseError("control frame shorter than the 3-byte header");
  }
  if (static_cast<std::uint8_t>(frame[0]) != kMagic) {
    throw ParseError("control frame magic mismatch (not a control message)");
  }
  if (static_cast<std::uint8_t>(frame[1]) != kVersion) {
    throw ParseError("unsupported control protocol version " +
                     std::to_string(static_cast<std::uint8_t>(frame[1])));
  }
  const auto raw = static_cast<std::uint8_t>(frame[2]);
  if (raw < static_cast<std::uint8_t>(MsgType::kMonitorReport) ||
      raw > static_cast<std::uint8_t>(MsgType::kRefute)) {
    throw ParseError("unknown control message type " + std::to_string(raw));
  }
  return static_cast<MsgType>(raw);
}

// -- load reports (MonitorReport / WorkloadUpdate share a layout) --------

std::vector<std::byte> encode(const MonitorReport& m) {
  WireWriter w = header(MsgType::kMonitorReport);
  w.write_u32(m.host.value());
  w.write_f64(m.when);
  w.write_f64(m.cpu_load);
  w.write_f64(m.available_memory_mb);
  return w.take();
}

std::vector<std::byte> encode(const WorkloadUpdate& m) {
  WireWriter w = header(MsgType::kWorkloadUpdate);
  w.write_u32(m.host.value());
  w.write_f64(m.when);
  w.write_f64(m.cpu_load);
  w.write_f64(m.available_memory_mb);
  return w.take();
}

MonitorReport decode_monitor_report(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kMonitorReport);
  MonitorReport m;
  m.host = common::HostId(r.read_u32());
  m.when = r.read_f64();
  m.cpu_load = r.read_f64();
  m.available_memory_mb = r.read_f64();
  return m;
}

WorkloadUpdate decode_workload_update(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kWorkloadUpdate);
  WorkloadUpdate m;
  m.host = common::HostId(r.read_u32());
  m.when = r.read_f64();
  m.cpu_load = r.read_f64();
  m.available_memory_mb = r.read_f64();
  return m;
}

// -- liveness / network --------------------------------------------------

std::vector<std::byte> encode(const LivenessChange& m) {
  WireWriter w = header(MsgType::kLivenessChange);
  w.write_u32(m.host.value());
  w.write_f64(m.when);
  w.write_u8(m.alive ? 1 : 0);
  return w.take();
}

LivenessChange decode_liveness_change(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kLivenessChange);
  LivenessChange m;
  m.host = common::HostId(r.read_u32());
  m.when = r.read_f64();
  m.alive = r.read_u8() != 0;
  return m;
}

std::vector<std::byte> encode(const NetworkMeasurement& m) {
  WireWriter w = header(MsgType::kNetworkMeasurement);
  w.write_u32(m.group.value());
  w.write_f64(m.when);
  w.write_f64(m.latency_s);
  w.write_f64(m.transfer_mb_per_s);
  return w.take();
}

NetworkMeasurement decode_network_measurement(
    std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kNetworkMeasurement);
  NetworkMeasurement m;
  m.group = common::GroupId(r.read_u32());
  m.when = r.read_f64();
  m.latency_s = r.read_f64();
  m.transfer_mb_per_s = r.read_f64();
  return m;
}

// -- reschedule ----------------------------------------------------------

std::vector<std::byte> encode(const RescheduleRequest& m) {
  WireWriter w = header(MsgType::kRescheduleRequest);
  w.write_u32(m.app.value());
  w.write_u32(m.task.value());
  w.write_u32(m.host.value());
  w.write_f64(m.when);
  w.write_f64(m.observed_load);
  w.write_u8(static_cast<std::uint8_t>(m.kind));
  w.write_string(m.reason);
  return w.take();
}

RescheduleRequest decode_reschedule_request(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kRescheduleRequest);
  RescheduleRequest m;
  m.app = common::AppId(r.read_u32());
  m.task = common::TaskId(r.read_u32());
  m.host = common::HostId(r.read_u32());
  m.when = r.read_f64();
  m.observed_load = r.read_f64();
  const std::uint8_t kind = r.read_u8();
  if (kind > static_cast<std::uint8_t>(RescheduleRequest::Kind::kTaskError)) {
    throw ParseError("unknown reschedule kind " + std::to_string(kind));
  }
  m.kind = static_cast<RescheduleRequest::Kind>(kind);
  m.reason = r.read_string();
  return m;
}

// -- heartbeat -----------------------------------------------------------

std::vector<std::byte> encode(const Heartbeat& m) {
  WireWriter w = header(MsgType::kHeartbeat);
  w.write_u32(m.site.value());
  w.write_i64(m.pid);
  w.write_u64(m.seq);
  w.write_u16(m.rpc_port);
  w.write_u32(m.incarnation);
  w.write_u16(m.gossip_port);
  return w.take();
}

Heartbeat decode_heartbeat(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kHeartbeat);
  Heartbeat m;
  m.site = common::SiteId(r.read_u32());
  m.pid = r.read_i64();
  m.seq = r.read_u64();
  m.rpc_port = r.read_u16();
  m.incarnation = r.read_u32();
  m.gossip_port = r.read_u16();
  return m;
}

// -- quorum liveness (D17) -----------------------------------------------

std::vector<std::byte> encode(const PeerDigest& m) {
  WireWriter w = header(MsgType::kPeerDigest);
  w.write_u32(m.origin_site.value());
  w.write_u32(m.origin_incarnation);
  w.write_u32(static_cast<std::uint32_t>(m.peers.size()));
  for (const PeerHealth& p : m.peers) {
    w.write_u32(p.site.value());
    w.write_u32(p.incarnation);
    w.write_f64(p.age_s);
    w.write_u8(p.reachable ? 1 : 0);
  }
  return w.take();
}

PeerDigest decode_peer_digest(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kPeerDigest);
  PeerDigest m;
  m.origin_site = common::SiteId(r.read_u32());
  m.origin_incarnation = r.read_u32();
  const std::uint32_t peers = r.read_count(17);
  m.peers.reserve(peers);
  for (std::uint32_t i = 0; i < peers; ++i) {
    PeerHealth p;
    p.site = common::SiteId(r.read_u32());
    p.incarnation = r.read_u32();
    p.age_s = r.read_f64();
    p.reachable = r.read_u8() != 0;
    m.peers.push_back(p);
  }
  return m;
}

std::vector<std::byte> encode(const GossipPing& m) {
  WireWriter w = header(MsgType::kGossipPing);
  w.write_u32(m.origin_site.value());
  w.write_u64(m.seq);
  return w.take();
}

GossipPing decode_gossip_ping(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kGossipPing);
  GossipPing m;
  m.origin_site = common::SiteId(r.read_u32());
  m.seq = r.read_u64();
  return m;
}

std::vector<std::byte> encode(const GossipAck& m) {
  WireWriter w = header(MsgType::kGossipAck);
  w.write_u32(m.site.value());
  w.write_u32(m.incarnation);
  w.write_u64(m.seq);
  return w.take();
}

GossipAck decode_gossip_ack(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kGossipAck);
  GossipAck m;
  m.site = common::SiteId(r.read_u32());
  m.incarnation = r.read_u32();
  m.seq = r.read_u64();
  return m;
}

std::vector<std::byte> encode(const PingReq& m) {
  WireWriter w = header(MsgType::kPingReq);
  w.write_u32(m.origin_site.value());
  w.write_u32(m.target_site.value());
  w.write_u16(m.target_gossip_port);
  w.write_u64(m.seq);
  return w.take();
}

PingReq decode_ping_req(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kPingReq);
  PingReq m;
  m.origin_site = common::SiteId(r.read_u32());
  m.target_site = common::SiteId(r.read_u32());
  m.target_gossip_port = r.read_u16();
  m.seq = r.read_u64();
  return m;
}

std::vector<std::byte> encode(const PingReqReply& m) {
  WireWriter w = header(MsgType::kPingReqReply);
  w.write_u32(m.target_site.value());
  w.write_u8(m.reachable ? 1 : 0);
  w.write_u32(m.target_incarnation);
  w.write_u64(m.seq);
  return w.take();
}

PingReqReply decode_ping_req_reply(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kPingReqReply);
  PingReqReply m;
  m.target_site = common::SiteId(r.read_u32());
  m.reachable = r.read_u8() != 0;
  m.target_incarnation = r.read_u32();
  m.seq = r.read_u64();
  return m;
}

std::vector<std::byte> encode(const PeerRoster& m) {
  WireWriter w = header(MsgType::kPeerRoster);
  w.write_u32(static_cast<std::uint32_t>(m.peers.size()));
  for (const PeerEndpoint& p : m.peers) {
    w.write_u32(p.site.value());
    w.write_u16(p.gossip_port);
    w.write_u32(p.incarnation);
    w.write_u8(p.suspected ? 1 : 0);
  }
  return w.take();
}

PeerRoster decode_peer_roster(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kPeerRoster);
  PeerRoster m;
  const std::uint32_t peers = r.read_count(11);
  m.peers.reserve(peers);
  for (std::uint32_t i = 0; i < peers; ++i) {
    PeerEndpoint p;
    p.site = common::SiteId(r.read_u32());
    p.gossip_port = r.read_u16();
    p.incarnation = r.read_u32();
    p.suspected = r.read_u8() != 0;
    m.peers.push_back(p);
  }
  return m;
}

std::vector<std::byte> encode(const Refute& m) {
  WireWriter w = header(MsgType::kRefute);
  w.write_u32(m.witness_site.value());
  w.write_u32(m.site.value());
  w.write_u32(m.incarnation);
  return w.take();
}

Refute decode_refute(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kRefute);
  Refute m;
  m.witness_site = common::SiteId(r.read_u32());
  m.site = common::SiteId(r.read_u32());
  m.incarnation = r.read_u32();
  return m;
}

// -- daemon RPCs ---------------------------------------------------------

std::vector<std::byte> encode(const TickRequest& m) {
  WireWriter w = header(MsgType::kTickRequest);
  w.write_f64(m.now);
  return w.take();
}

TickRequest decode_tick_request(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kTickRequest);
  TickRequest m;
  m.now = r.read_f64();
  return m;
}

std::vector<std::byte> encode(const HostSelectionRequest& m) {
  WireWriter w = header(MsgType::kHostSelectionRequest);
  w.write_string(m.graph_text);
  w.write_u32(m.threads);
  return w.take();
}

HostSelectionRequest decode_host_selection_request(
    std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kHostSelectionRequest);
  HostSelectionRequest m;
  m.graph_text = r.read_string();
  m.threads = r.read_u32();
  return m;
}

std::vector<std::byte> encode(const HostSelectionResponse& m) {
  WireWriter w = header(MsgType::kHostSelectionResponse);
  w.write_u32(static_cast<std::uint32_t>(m.selection.size()));
  // Deterministic order: the map is unordered, but the wire image of a
  // response must be reproducible for the bit-identity tests.
  std::vector<common::TaskId> tasks;
  tasks.reserve(m.selection.size());
  for (const auto& [task, sel] : m.selection) tasks.push_back(task);
  std::sort(tasks.begin(), tasks.end(),
            [](common::TaskId a, common::TaskId b) {
              return a.value() < b.value();
            });
  for (const common::TaskId task : tasks) {
    w.write_u32(task.value());
    write_selection(w, m.selection.at(task));
  }
  return w.take();
}

HostSelectionResponse decode_host_selection_response(
    std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kHostSelectionResponse);
  HostSelectionResponse m;
  const std::uint32_t entries = r.read_u32();
  for (std::uint32_t i = 0; i < entries; ++i) {
    const common::TaskId task(r.read_u32());
    m.selection.emplace(task, read_selection(r));
  }
  return m;
}

ReselectionRequest make_reselection_request(
    const afg::TaskNode& node, const std::vector<common::HostId>& excluded) {
  ReselectionRequest req;
  req.task = node.id;
  req.library_task = node.library_task;
  req.label = node.label;
  req.input_size = node.props.input_size;
  req.num_processors = node.props.num_processors;
  req.parallel = node.props.mode == afg::ComputeMode::kParallel;
  req.excluded = excluded;
  return req;
}

std::vector<std::byte> encode(const ReselectionRequest& m) {
  WireWriter w = header(MsgType::kReselectionRequest);
  w.write_u32(m.task.value());
  w.write_string(m.library_task);
  w.write_string(m.label);
  w.write_f64(m.input_size);
  w.write_u32(m.num_processors);
  w.write_u8(m.parallel ? 1 : 0);
  w.write_u32(static_cast<std::uint32_t>(m.excluded.size()));
  for (const common::HostId h : m.excluded) w.write_u32(h.value());
  return w.take();
}

ReselectionRequest decode_reselection_request(
    std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kReselectionRequest);
  ReselectionRequest m;
  m.task = common::TaskId(r.read_u32());
  m.library_task = r.read_string();
  m.label = r.read_string();
  m.input_size = r.read_f64();
  m.num_processors = r.read_u32();
  m.parallel = r.read_u8() != 0;
  const std::uint32_t excluded = r.read_count(4);
  m.excluded.reserve(excluded);
  for (std::uint32_t i = 0; i < excluded; ++i) {
    m.excluded.emplace_back(r.read_u32());
  }
  return m;
}

std::vector<std::byte> encode(const ReselectionResponse& m) {
  WireWriter w = header(MsgType::kReselectionResponse);
  write_selection(w, m.selection);
  return w.take();
}

ReselectionResponse decode_reselection_response(
    std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kReselectionResponse);
  ReselectionResponse m;
  m.selection = read_selection(r);
  return m;
}

std::vector<std::byte> encode(const RecordTaskTime& m) {
  WireWriter w = header(MsgType::kRecordTaskTime);
  w.write_string(m.library_task);
  w.write_f64(m.elapsed_s);
  return w.take();
}

RecordTaskTime decode_record_task_time(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kRecordTaskTime);
  RecordTaskTime m;
  m.library_task = r.read_string();
  m.elapsed_s = r.read_f64();
  return m;
}

std::vector<std::byte> encode(const Ack&) {
  return header(MsgType::kAck).take();
}

std::vector<std::byte> encode_shutdown() {
  return header(MsgType::kShutdownRequest).take();
}

std::vector<std::byte> encode(const ErrorReply& m) {
  WireWriter w = header(MsgType::kErrorReply);
  w.write_string(m.what);
  return w.take();
}

ErrorReply decode_error_reply(std::span<const std::byte> frame) {
  WireReader r = payload_reader(frame, MsgType::kErrorReply);
  ErrorReply m;
  m.what = r.read_string();
  return m;
}

}  // namespace vdce::rt::wire
