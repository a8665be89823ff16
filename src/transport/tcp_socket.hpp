// Low-level loopback TCP helpers shared by the socket transports:
// listener setup, connection, and the length-prefixed message framing.
//
// Wire frame: 4-byte little-endian payload length, then either the binary
// codec encoding of one Message or a batch envelope (proto::kBatchMarker)
// carrying several same-channel messages — the receiver distinguishes the
// two by the body's first byte. Frames above a sanity cap are treated as
// corruption.
//
// A frame is built in one buffer: begin_frame() reserves the length prefix,
// the codec appends the body behind it, and write_frame_body() patches the
// prefix in and ships the whole frame with a single send().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hlock::transport {

/// Largest accepted frame body; the biggest legal message (a token with a
/// full queue) is far below this. Senders split larger batches.
inline constexpr std::uint32_t kMaxFrameBytes = 1 << 20;

/// Bytes of the length prefix in front of every frame body.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Returns the fd.
/// Throws UsageError on failure.
int listen_loopback(std::uint16_t port = 0);

/// The local port a bound socket listens on.
std::uint16_t local_port(int fd);

/// Connects to 127.0.0.1:`port` (blocking) and enables TCP_NODELAY.
/// Throws UsageError on failure.
int connect_loopback(std::uint16_t port);

/// Clears `frame` and reserves its length prefix; append the body next.
void begin_frame(std::vector<std::byte>& frame);

/// The body length a frame's prefix announces.
std::uint32_t frame_length(const std::byte* header);

/// Patches the length prefix of a frame begun with begin_frame() and
/// writes the whole frame with one send(); false on error, peer close, or
/// a body that is empty or above kMaxFrameBytes.
bool write_frame_body(int fd, std::vector<std::byte>& frame);

}  // namespace hlock::transport
