#include "transport/tcp_socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/check.hpp"

namespace hlock::transport {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

int listen_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HLOCK_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw UsageError("tcp: bind/listen on loopback failed: " + reason);
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  HLOCK_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                              &len) == 0,
                "getsockname() failed");
  return ntohs(bound.sin_port);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HLOCK_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw UsageError("tcp: connect to loopback port " +
                     std::to_string(port) + " failed: " + reason);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void begin_frame(std::vector<std::byte>& frame) {
  frame.assign(kFrameHeaderBytes, std::byte{0});
}

std::uint32_t frame_length(const std::byte* header) {
  std::uint32_t size = 0;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    size |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  return size;
}

bool write_frame_body(int fd, std::vector<std::byte>& frame) {
  const std::size_t body = frame.size() - kFrameHeaderBytes;
  if (body == 0 || body > kMaxFrameBytes) return false;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    frame[i] = static_cast<std::byte>((body >> (8 * i)) & 0xFF);
  }
  const std::byte* data = frame.data();
  std::size_t size = frame.size();
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace hlock::transport
