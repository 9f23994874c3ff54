#include "datamgr/channel.hpp"

namespace vdce::dm {

// -- Channel adapters ------------------------------------------------------

void Channel::send(std::span<const std::byte> message) {
  send_frame(FramePool::global().copy_of(message));
}

std::optional<std::vector<std::byte>> Channel::receive_for(double timeout_s) {
  auto frame = receive_frame_for(timeout_s);
  if (!frame) return std::nullopt;
  return frame->to_vector();
}

}  // namespace vdce::dm
