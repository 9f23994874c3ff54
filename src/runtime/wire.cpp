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

namespace detail {

WireWriter start(MsgType type) {
  WireWriter w;
  w.write_u8(kMagic);
  w.write_u8(kVersion);
  w.write_u8(static_cast<std::uint8_t>(type));
  return w;
}

WireReader payload(std::span<const std::byte> frame, MsgType type) {
  const MsgType got = peek_type(frame);
  if (got != type) {
    throw ParseError(std::string("control message type mismatch: expected ") +
                     to_string(type) + ", got " + to_string(got));
  }
  return WireReader(frame.subspan(3));
}

void put_selection_map(WireWriter& w, const sched::HostSelectionMap& map) {
  // The map is unordered, but the wire image of a response must be
  // reproducible for the bit-identity tests: entries go in task order.
  std::vector<common::TaskId> tasks;
  tasks.reserve(map.size());
  for (const auto& [task, selection] : map) tasks.push_back(task);
  std::sort(tasks.begin(), tasks.end());
  w.write_u32(static_cast<std::uint32_t>(tasks.size()));
  for (const common::TaskId task : tasks) {
    put(w, task);
    put(w, map.at(task));
  }
}

sched::HostSelectionMap get_selection_map(WireReader& r) {
  constexpr std::size_t kEntryBytes =
      min_size<common::TaskId>() + min_size<sched::HostSelection>();
  const std::uint32_t entries = r.read_count(kEntryBytes);
  sched::HostSelectionMap map;
  for (std::uint32_t i = 0; i < entries; ++i) {
    const auto task = get<common::TaskId>(r);
    map.emplace(task, get<sched::HostSelection>(r));  // the first one wins
  }
  return map;
}

}  // namespace detail

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

}  // namespace vdce::rt::wire
