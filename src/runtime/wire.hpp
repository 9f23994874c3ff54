// Versioned wire format for the control plane (design D14).
//
// Every control message -- the Resource Controller messages of
// messages.hpp, the daemon RPCs and the D17 gossip -- travels as
//
//     u8 magic (0xC7) | u8 version (1) | u8 type | payload
//
// carried as ONE Data Manager frame (the 4-byte length prefix of the
// TCP transport delimits messages, so the wire format never needs its
// own length field).
//
// A message's payload layout is its field list, Layout<M> below: its
// type byte and its members in wire order.  One encode(m) and one
// decode<M>(frame) walk that list, so a new message is a struct, a
// MsgType value (named in to_string; the last value bounds peek_type)
// and one Layout, and a new trailing field is one more member at the
// end of its list.  Field types map to the big-endian WireWriter
// codec: ids are u32, bool is u8, a string or vector is a u32 count
// and its elements, a pair is its two halves, a nested record is its
// own field list.  Two rules are not plain fields: a
// RescheduleRequest::Kind outside the enum is rejected, and a
// HostSelectionMap is written in task-id order (so its wire image is
// reproducible), the first entry of a task winning on decode.
//
// Compatibility contract:
//   * decoders reject a wrong magic or an unknown version outright
//     (ParseError) -- no silent misparse of foreign bytes;
//   * decoders IGNORE trailing bytes after the fields they know, so a
//     version-1 reader accepts a version-1 message extended with new
//     trailing fields by a newer writer (the append-only evolution
//     rule);
//   * truncated payloads throw ParseError from the underlying reader,
//     and a count whose elements cannot fit the rest of the message
//     throws before it sizes an allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/serialize.hpp"
#include "runtime/messages.hpp"
#include "scheduler/host_selection.hpp"

namespace vdce::afg {
struct TaskNode;
}

namespace vdce::rt::wire {

inline constexpr std::uint8_t kMagic = 0xC7;
inline constexpr std::uint8_t kVersion = 1;

/// Message discriminator (third header byte).  Append-only: existing
/// values never change meaning.
enum class MsgType : std::uint8_t {
  kMonitorReport = 1,
  kWorkloadUpdate = 2,
  kLivenessChange = 3,
  kNetworkMeasurement = 4,
  kRescheduleRequest = 5,
  kHeartbeat = 6,
  // -- daemon RPCs ------------------------------------------------------
  kTickRequest = 7,
  kHostSelectionRequest = 8,
  kHostSelectionResponse = 9,
  kReselectionRequest = 10,
  kReselectionResponse = 11,
  kRecordTaskTime = 12,
  kShutdownRequest = 13,
  kAck = 14,
  kErrorReply = 15,
  // -- quorum liveness (D17) ---------------------------------------------
  kPeerDigest = 16,
  kGossipPing = 17,
  kGossipAck = 18,
  kPingReq = 19,
  kPingReqReply = 20,
  kPeerRoster = 21,
  kRefute = 22,
};

[[nodiscard]] const char* to_string(MsgType type);

/// A site daemon's liveness beacon to its watchdog.  The first beacon
/// after a (re)start also announces the kernel-assigned RPC port.
struct Heartbeat {
  common::SiteId site;
  std::int64_t pid = 0;
  std::uint64_t seq = 0;
  std::uint16_t rpc_port = 0;
  /// Restart generation: 1 for the first launch, bumped by the
  /// watchdog on every respawn so a stale pre-kill beacon can never be
  /// mistaken for the reincarnation's.
  std::uint32_t incarnation = 1;
  /// Gossip listener port (0 = gossip disabled); peers ping here.
  std::uint16_t gossip_port = 0;
};

// -- quorum liveness (D17) -----------------------------------------------

/// One peer's health as seen by a digest's origin site.
struct PeerHealth {
  common::SiteId site;
  /// The incarnation the origin last heard from.
  std::uint32_t incarnation = 0;
  /// Seconds since the origin last heard from the peer.
  double age_s = 0.0;
  /// Whether the origin's latest probe of the peer succeeded.
  bool reachable = false;
};

/// Daemon -> watchdog (piggybacked on the heartbeat channel): who the
/// origin site last heard from, with incarnation numbers.  The
/// watchdog turns fresh reachable entries into refutations and
/// unreachable ones into suspicion votes, fenced by the origin's own
/// incarnation.
struct PeerDigest {
  common::SiteId origin_site;
  std::uint32_t origin_incarnation = 0;
  std::vector<PeerHealth> peers;
};

/// Peer -> peer direct probe ("are you there?").
struct GossipPing {
  common::SiteId origin_site;
  std::uint64_t seq = 0;
};

/// Probe answer: the target names itself and its incarnation.
struct GossipAck {
  common::SiteId site;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;
};

/// Watchdog -> third site: "probe `target_site` for me" (the SWIM
/// ping-req -- an independent network path to a suspect).
struct PingReq {
  common::SiteId origin_site;
  common::SiteId target_site;
  std::uint16_t target_gossip_port = 0;
  std::uint64_t seq = 0;
};

/// Third site -> watchdog: the indirect probe's verdict.
struct PingReqReply {
  common::SiteId target_site;
  bool reachable = false;
  /// Incarnation the target answered with (0 when unreachable).
  std::uint32_t target_incarnation = 0;
  std::uint64_t seq = 0;
};

/// One row of a PeerRoster.
struct PeerEndpoint {
  common::SiteId site;
  std::uint16_t gossip_port = 0;
  std::uint32_t incarnation = 0;
  /// The watchdog currently suspects this site (peers that reach it
  /// should refute immediately rather than wait for the next digest).
  bool suspected = false;
};

/// Watchdog -> daemon (gossip port): current peer membership.
struct PeerRoster {
  std::vector<PeerEndpoint> peers;
};

/// Daemon -> watchdog (heartbeat channel): "I just heard site `site`
/// at `incarnation` -- withdraw my suspicion vote."
struct Refute {
  common::SiteId witness_site;
  common::SiteId site;
  std::uint32_t incarnation = 0;
};

/// Coordinator -> daemon: advance the site's Control Manager to `now`.
struct TickRequest {
  common::TimePoint now = 0.0;
};

/// Coordinator -> daemon: run the Host Selection Algorithm over the
/// AFG (shipped in afg::to_text form).
struct HostSelectionRequest {
  std::string graph_text;
  std::uint32_t threads = 1;
};

struct HostSelectionResponse {
  sched::HostSelectionMap selection;
};

/// Coordinator -> daemon: re-place one task, excluding dead hosts.
struct ReselectionRequest {
  common::TaskId task;
  std::string library_task;
  std::string label;
  double input_size = 1.0;
  std::uint32_t num_processors = 1;
  bool parallel = false;
  std::vector<common::HostId> excluded;
};

struct ReselectionResponse {
  sched::HostSelection selection;
};

/// Coordinator -> daemon: post-execution feedback for the
/// task-performance database.
struct RecordTaskTime {
  std::string library_task;
  common::Duration elapsed_s = 0.0;
};

/// Coordinator -> daemon: answer with an Ack, then exit.
struct ShutdownRequest {};

/// Daemon -> coordinator: RPC succeeded with no payload.
struct Ack {};

/// Daemon -> coordinator: RPC failed; `what` carries the error text.
struct ErrorReply {
  std::string what;
};

// -- field lists ---------------------------------------------------------

/// A record's fields, in wire order.
template <auto... Field>
struct Fields {
  static constexpr auto fields = std::tuple(Field...);
};

/// A message: its type byte, then its fields in wire order.
template <MsgType Type, auto... Field>
struct Message : Fields<Field...> {
  static constexpr MsgType type = Type;
};

/// Specialised once for every message and every record nested in one.
template <typename T>
struct Layout;

template <>
struct Layout<MonitorReport>
    : Message<MsgType::kMonitorReport, &MonitorReport::host,
              &MonitorReport::when, &MonitorReport::cpu_load,
              &MonitorReport::available_memory_mb> {};
template <>
struct Layout<WorkloadUpdate>
    : Message<MsgType::kWorkloadUpdate, &WorkloadUpdate::host,
              &WorkloadUpdate::when, &WorkloadUpdate::cpu_load,
              &WorkloadUpdate::available_memory_mb> {};
template <>
struct Layout<LivenessChange>
    : Message<MsgType::kLivenessChange, &LivenessChange::host,
              &LivenessChange::when, &LivenessChange::alive> {};
template <>
struct Layout<NetworkMeasurement>
    : Message<MsgType::kNetworkMeasurement, &NetworkMeasurement::group,
              &NetworkMeasurement::when, &NetworkMeasurement::latency_s,
              &NetworkMeasurement::transfer_mb_per_s> {};
template <>
struct Layout<RescheduleRequest>
    : Message<MsgType::kRescheduleRequest, &RescheduleRequest::app,
              &RescheduleRequest::task, &RescheduleRequest::host,
              &RescheduleRequest::when, &RescheduleRequest::observed_load,
              &RescheduleRequest::kind, &RescheduleRequest::reason> {};
template <>
struct Layout<Heartbeat>
    : Message<MsgType::kHeartbeat, &Heartbeat::site, &Heartbeat::pid,
              &Heartbeat::seq, &Heartbeat::rpc_port, &Heartbeat::incarnation,
              &Heartbeat::gossip_port> {};
template <>
struct Layout<TickRequest>
    : Message<MsgType::kTickRequest, &TickRequest::now> {};
template <>
struct Layout<HostSelectionRequest>
    : Message<MsgType::kHostSelectionRequest,
              &HostSelectionRequest::graph_text,
              &HostSelectionRequest::threads> {};
template <>
struct Layout<HostSelectionResponse>
    : Message<MsgType::kHostSelectionResponse,
              &HostSelectionResponse::selection> {};
template <>
struct Layout<ReselectionRequest>
    : Message<MsgType::kReselectionRequest, &ReselectionRequest::task,
              &ReselectionRequest::library_task, &ReselectionRequest::label,
              &ReselectionRequest::input_size,
              &ReselectionRequest::num_processors,
              &ReselectionRequest::parallel, &ReselectionRequest::excluded> {
};
template <>
struct Layout<ReselectionResponse>
    : Message<MsgType::kReselectionResponse, &ReselectionResponse::selection> {
};
template <>
struct Layout<RecordTaskTime>
    : Message<MsgType::kRecordTaskTime, &RecordTaskTime::library_task,
              &RecordTaskTime::elapsed_s> {};
template <>
struct Layout<ShutdownRequest> : Message<MsgType::kShutdownRequest> {};
template <>
struct Layout<Ack> : Message<MsgType::kAck> {};
template <>
struct Layout<ErrorReply>
    : Message<MsgType::kErrorReply, &ErrorReply::what> {};
template <>
struct Layout<PeerDigest>
    : Message<MsgType::kPeerDigest, &PeerDigest::origin_site,
              &PeerDigest::origin_incarnation, &PeerDigest::peers> {};
template <>
struct Layout<GossipPing>
    : Message<MsgType::kGossipPing, &GossipPing::origin_site,
              &GossipPing::seq> {};
template <>
struct Layout<GossipAck>
    : Message<MsgType::kGossipAck, &GossipAck::site, &GossipAck::incarnation,
              &GossipAck::seq> {};
template <>
struct Layout<PingReq>
    : Message<MsgType::kPingReq, &PingReq::origin_site, &PingReq::target_site,
              &PingReq::target_gossip_port, &PingReq::seq> {};
template <>
struct Layout<PingReqReply>
    : Message<MsgType::kPingReqReply, &PingReqReply::target_site,
              &PingReqReply::reachable, &PingReqReply::target_incarnation,
              &PingReqReply::seq> {};
template <>
struct Layout<PeerRoster>
    : Message<MsgType::kPeerRoster, &PeerRoster::peers> {};
template <>
struct Layout<Refute>
    : Message<MsgType::kRefute, &Refute::witness_site, &Refute::site,
              &Refute::incarnation> {};

template <>
struct Layout<PeerHealth>
    : Fields<&PeerHealth::site, &PeerHealth::incarnation, &PeerHealth::age_s,
             &PeerHealth::reachable> {};
template <>
struct Layout<PeerEndpoint>
    : Fields<&PeerEndpoint::site, &PeerEndpoint::gossip_port,
             &PeerEndpoint::incarnation, &PeerEndpoint::suspected> {};
template <>
struct Layout<sched::HostSelection>
    : Fields<&sched::HostSelection::hosts, &sched::HostSelection::predicted_s,
             &sched::HostSelection::scored> {};

// -- the codec -----------------------------------------------------------

namespace detail {

template <typename T>
inline constexpr bool kIsId = false;
template <typename Tag>
inline constexpr bool kIsId<common::Id<Tag>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// The type of the member a pointer-to-member type names.
template <typename P>
struct MemberOf;
template <typename C, typename T>
struct MemberOf<T C::*> {
  using type = T;
};
template <typename P>
using member_t = typename MemberOf<P>::type;

/// Fewest bytes a T takes on the wire (a scalar is written at its own
/// width): a count of Ts is rejected when that many cannot fit the rest
/// of the message.
template <typename T>
constexpr std::size_t min_size() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T> || kIsId<T>) {
    return sizeof(T);
  } else if constexpr (kIsPair<T>) {
    return min_size<typename T::first_type>() +
           min_size<typename T::second_type>();
  } else if constexpr (kIsVector<T> || std::is_same_v<T, std::string> ||
                       std::is_same_v<T, sched::HostSelectionMap>) {
    return 4;  // the count of an empty one
  } else {
    return std::apply(
        [](auto... field) {
          return (min_size<member_t<decltype(field)>>() + ... + 0);
        },
        Layout<T>::fields);
  }
}

void put_selection_map(common::WireWriter& w,
                       const sched::HostSelectionMap& map);
sched::HostSelectionMap get_selection_map(common::WireReader& r);

/// Writes `v` by its type's rule (a record: its fields in order).
template <typename T>
void put(common::WireWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.write_u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, RescheduleRequest::Kind>) {
    w.write_u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w.write_u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.write_u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.write_u64(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    w.write_i64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.write_f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.write_string(v);
  } else if constexpr (kIsId<T>) {
    w.write_u32(v.value());
  } else if constexpr (kIsPair<T>) {
    put(w, v.first);
    put(w, v.second);
  } else if constexpr (kIsVector<T>) {
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& element : v) put(w, element);
  } else if constexpr (std::is_same_v<T, sched::HostSelectionMap>) {
    put_selection_map(w, v);
  } else {
    std::apply([&](auto... field) { (put(w, v.*field), ...); },
               Layout<T>::fields);
  }
}

/// Reads a T written by put().
template <typename T>
T get(common::WireReader& r) {
  if constexpr (std::is_same_v<T, bool>) {
    return r.read_u8() != 0;
  } else if constexpr (std::is_same_v<T, RescheduleRequest::Kind>) {
    const std::uint8_t kind = r.read_u8();
    if (kind > static_cast<std::uint8_t>(T::kTaskError)) {
      throw common::ParseError("unknown reschedule kind " +
                               std::to_string(kind));
    }
    return static_cast<T>(kind);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    return r.read_u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return r.read_u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return r.read_u64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return r.read_i64();
  } else if constexpr (std::is_same_v<T, double>) {
    return r.read_f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r.read_string();
  } else if constexpr (kIsId<T>) {
    return T(r.read_u32());
  } else if constexpr (kIsPair<T>) {
    T v;
    v.first = get<typename T::first_type>(r);
    v.second = get<typename T::second_type>(r);
    return v;
  } else if constexpr (kIsVector<T>) {
    using Element = typename T::value_type;
    constexpr std::size_t kElementBytes = min_size<Element>();
    static_assert(kElementBytes > 0, "a count must bound its allocation");
    const std::uint32_t n = r.read_count(kElementBytes);
    T v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(get<Element>(r));
    return v;
  } else if constexpr (std::is_same_v<T, sched::HostSelectionMap>) {
    return get_selection_map(r);
  } else {
    T v;
    std::apply(
        [&](auto... field) {
          ((v.*field = get<member_t<decltype(field)>>(r)), ...);
        },
        Layout<T>::fields);
    return v;
  }
}

/// A writer holding the header of a `type` message.
[[nodiscard]] common::WireWriter start(MsgType type);

/// Checks the header of a frame that must hold a `type` message (a
/// frame routed to the wrong decoder fails loudly instead of
/// misparsing) and positions a reader at its payload.
[[nodiscard]] common::WireReader payload(std::span<const std::byte> frame,
                                         MsgType type);

}  // namespace detail

/// Encodes `m`: the header, then its fields in wire order.
template <typename M>
[[nodiscard]] std::vector<std::byte> encode(const M& m) {
  common::WireWriter w = detail::start(Layout<M>::type);
  detail::put(w, m);
  return w.take();
}

/// Validates the 3-byte header and returns the message type.  Throws
/// ParseError on a short buffer, wrong magic, or unknown version.
[[nodiscard]] MsgType peek_type(std::span<const std::byte> frame);

/// Decodes a frame holding an M.  Throws ParseError on a bad header, a
/// frame of another type, a truncated payload or an out-of-range kind.
template <typename M>
[[nodiscard]] M decode(std::span<const std::byte> frame) {
  common::WireReader r = detail::payload(frame, Layout<M>::type);
  return detail::get<M>(r);
}

/// Builds a ReselectionRequest from an AFG node (the coordinator-side
/// convenience; the daemon reconstructs an equivalent node).
[[nodiscard]] ReselectionRequest make_reselection_request(
    const afg::TaskNode& node, const std::vector<common::HostId>& excluded);

}  // namespace vdce::rt::wire
