#include "datamgr/mplib.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace vdce::dm {

using common::ParseError;
using common::StateError;
using common::TransportError;
using common::WireReader;
using common::WireWriter;

std::string to_string(MpLibrary lib) {
  switch (lib) {
    case MpLibrary::kP4:  return "p4";
    case MpLibrary::kPvm: return "pvm";
    case MpLibrary::kMpi: return "mpi";
    case MpLibrary::kNcs: return "ncs";
  }
  return "?";
}

MpLibrary mp_library_from_string(const std::string& s) {
  if (s == "p4") return MpLibrary::kP4;
  if (s == "pvm") return MpLibrary::kPvm;
  if (s == "mpi") return MpLibrary::kMpi;
  if (s == "ncs") return MpLibrary::kNcs;
  throw ParseError("unknown message-passing library: " + s);
}

namespace {

void put_u32(std::byte* p, std::uint32_t v) {
  p[0] = std::byte{static_cast<std::uint8_t>(v >> 24)};
  p[1] = std::byte{static_cast<std::uint8_t>(v >> 16)};
  p[2] = std::byte{static_cast<std::uint8_t>(v >> 8)};
  p[3] = std::byte{static_cast<std::uint8_t>(v)};
}

/// Envelope header bytes before the length-prefixed body.
std::size_t header_bytes(MpLibrary lib) {
  switch (lib) {
    case MpLibrary::kP4:  return 1 + 4 + 4;       // magic, tag, len
    case MpLibrary::kMpi: return 1 + 4 + 4 + 4;   // magic, comm, tag, len
    case MpLibrary::kNcs: return 1 + 4 + 4 + 4;   // magic, seq, tag, len
    case MpLibrary::kPvm: break;                  // fragmented: no envelope
  }
  throw StateError("pvm messages are fragmented and have no single envelope");
}

}  // namespace

MessageEndpoint::MessageEndpoint(MpLibrary library,
                                 std::shared_ptr<Channel> channel,
                                 std::uint32_t communicator)
    : library_(library),
      channel_(std::move(channel)),
      communicator_(communicator) {
  common::expects(channel_ != nullptr, "MessageEndpoint needs a channel");
}

void MessageEndpoint::send(int tag, std::span<const std::byte> data) {
  if (library_ == MpLibrary::kPvm) {
    send_pvm(tag, data.size(), [&](std::size_t off, std::size_t len) {
      channel_->send(data.subspan(off, len));
    });
    return;
  }
  // One pooled envelope, payload copied in exactly once.
  PreparedFrame prep = prepare(tag, data.size());
  if (!data.empty()) {
    std::memcpy(prep.body().data(), data.data(), data.size());
  }
  send_prepared(prep.frame.view());
}

void MessageEndpoint::send_frame(int tag, const FrameView& data) {
  if (library_ == MpLibrary::kPvm) {
    // Fragments ride as subviews of the payload frame: zero copies.
    send_pvm(tag, data.size(), [&](std::size_t off, std::size_t len) {
      channel_->send_frame(data.subview(off, len));
    });
    return;
  }
  send(tag, data.bytes());
}

template <typename SendFragment>
void MessageEndpoint::send_pvm(int tag, std::size_t size,
                               SendFragment&& send_fragment) {
  // pvm_pkbyte-style: the message travels as fragments, each its own
  // frame, preceded by a header frame carrying tag and count.
  const std::size_t nfrag = (size + kPvmFragment - 1) / kPvmFragment;
  WireWriter header;
  header.write_u8(static_cast<std::uint8_t>(MpLibrary::kPvm));
  header.write_u32(static_cast<std::uint32_t>(tag));
  header.write_u32(static_cast<std::uint32_t>(nfrag));
  header.write_u64(size);
  channel_->send(header.bytes());
  for (std::size_t i = 0; i < nfrag; ++i) {
    const std::size_t off = i * kPvmFragment;
    send_fragment(off, std::min(kPvmFragment, size - off));
  }
}

PreparedFrame MessageEndpoint::prepare(int tag, std::size_t body_size) {
  const std::size_t header = header_bytes(library_);
  PreparedFrame out;
  out.frame = FramePool::global().allocate(header + body_size);
  out.body_offset = header;
  std::byte* p = out.frame.data();
  p[0] = std::byte{static_cast<std::uint8_t>(library_)};
  switch (library_) {
    case MpLibrary::kP4:
      put_u32(p + 1, static_cast<std::uint32_t>(tag));
      put_u32(p + 5, static_cast<std::uint32_t>(body_size));
      break;
    case MpLibrary::kMpi:
      put_u32(p + 1, communicator_);
      put_u32(p + 5, static_cast<std::uint32_t>(tag));
      put_u32(p + 9, static_cast<std::uint32_t>(body_size));
      break;
    case MpLibrary::kNcs:
      put_u32(p + 1, send_seq_);  // advanced by send_prepared()
      put_u32(p + 5, static_cast<std::uint32_t>(tag));
      put_u32(p + 9, static_cast<std::uint32_t>(body_size));
      break;
    case MpLibrary::kPvm:
      break;  // unreachable: header_bytes threw
  }
  return out;
}

void MessageEndpoint::send_prepared(const FrameView& envelope) {
  header_bytes(library_);  // rejects pvm
  if (library_ == MpLibrary::kNcs) ++send_seq_;
  channel_->send_frame(envelope);
}

std::optional<TaggedMessage> MessageEndpoint::receive() {
  auto msg = receive_frame_impl(0.0);
  if (!msg) return std::nullopt;
  return TaggedMessage{msg->tag, msg->data.to_vector()};
}

std::optional<TaggedMessage> MessageEndpoint::receive_for(double timeout_s) {
  auto msg = receive_frame_impl(timeout_s);
  if (!msg) return std::nullopt;
  return TaggedMessage{msg->tag, msg->data.to_vector()};
}

std::optional<TaggedFrame> MessageEndpoint::receive_frame() {
  return receive_frame_impl(0.0);
}

std::optional<TaggedFrame> MessageEndpoint::receive_frame_for(
    double timeout_s) {
  return receive_frame_impl(timeout_s);
}

std::optional<TaggedFrame> MessageEndpoint::receive_frame_impl(
    double timeout_s) {
  const auto next_frame = [&] {
    return timeout_s > 0.0 ? channel_->receive_frame_for(timeout_s)
                           : channel_->receive_frame();
  };
  auto frame = next_frame();
  if (!frame) return std::nullopt;
  WireReader r(frame->bytes());
  const auto magic = static_cast<MpLibrary>(r.read_u8());
  if (magic != library_) {
    throw TransportError("message-passing library mismatch: got " +
                         to_string(magic) + ", expected " +
                         to_string(library_));
  }

  // Carves the length-prefixed body out of the envelope as a zero-copy
  // subview (the view keeps the whole envelope slab pinned).
  const auto read_body = [&]() -> FrameView {
    const std::uint32_t len = r.read_u32();
    if (r.remaining() < len) throw ParseError("wire message truncated");
    const std::size_t off = frame->size() - r.remaining();
    return frame->subview(off, len);
  };

  TaggedFrame msg;
  switch (library_) {
    case MpLibrary::kP4: {
      msg.tag = static_cast<int>(r.read_u32());
      msg.data = read_body();
      return msg;
    }
    case MpLibrary::kPvm: {
      msg.tag = static_cast<int>(r.read_u32());
      const std::uint32_t nfrag = r.read_u32();
      const std::uint64_t total = r.read_u64();
      Frame out = FramePool::global().allocate(total);
      std::size_t fill = 0;
      for (std::uint32_t i = 0; i < nfrag; ++i) {
        auto frag = next_frame();
        if (!frag) {
          throw TransportError("pvm message truncated: missing fragment");
        }
        if (fill + frag->size() > total) {
          throw TransportError("pvm message size mismatch after reassembly");
        }
        if (!frag->empty()) {
          std::memcpy(out.data() + fill, frag->data(), frag->size());
        }
        fill += frag->size();
      }
      if (fill != total) {
        throw TransportError("pvm message size mismatch after reassembly");
      }
      msg.data = out.view();
      return msg;
    }
    case MpLibrary::kMpi: {
      const std::uint32_t comm = r.read_u32();
      if (comm != communicator_) {
        throw TransportError("mpi communicator mismatch");
      }
      msg.tag = static_cast<int>(r.read_u32());
      msg.data = read_body();
      return msg;
    }
    case MpLibrary::kNcs: {
      const std::uint32_t seq = r.read_u32();
      if (seq != recv_seq_) {
        throw TransportError("ncs sequence violation");
      }
      ++recv_seq_;
      msg.tag = static_cast<int>(r.read_u32());
      msg.data = read_body();
      return msg;
    }
  }
  return std::nullopt;
}

}  // namespace vdce::dm
