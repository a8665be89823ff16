#include "transport/tcp_node.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <iterator>
#include <thread>

#include "proto/codec.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::transport {

namespace {

using Clock = std::chrono::steady_clock;

/// Initial per-connection read buffer; grows only to fit a larger frame.
constexpr std::size_t kReadBufferBytes = 4096;
constexpr int kMaxEvents = 16;

bool watch(int epoll_fd, int fd) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0;
}

}  // namespace

TcpNode::TcpNode(proto::NodeId self, std::vector<TcpPeer> peers,
                 TcpOptions options)
    : TcpNode(self, listen_loopback(0), std::move(peers), options) {}

TcpNode::TcpNode(proto::NodeId self, int adopted_listen_fd,
                 std::vector<TcpPeer> peers, TcpOptions options,
                 TcpTraffic* shared_traffic)
    : self_(self),
      options_(options),
      traffic_(shared_traffic != nullptr ? *shared_traffic : own_traffic_),
      listen_fd_(adopted_listen_fd) {
  HLOCK_REQUIRE(!self.is_none(), "a TcpNode needs a real node id");
  HLOCK_REQUIRE(options_.max_send_attempts >= 1,
                "a send needs at least one attempt");
  port_ = local_port(listen_fd_);
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL) | O_NONBLOCK);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  HLOCK_REQUIRE(epoll_fd_ >= 0 && wake_fd_ >= 0 &&
                    watch(epoll_fd_, listen_fd_) && watch(epoll_fd_, wake_fd_),
                "tcp: epoll setup failed");
  for (const TcpPeer& peer : peers) add_peer(peer);
}

TcpNode::~TcpNode() {
  shutdown();
  MutexLock guard(recv_mutex_);
  for (const auto& [fd, in] : inbound_) ::close(fd);
  ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void TcpNode::add_peer(const TcpPeer& peer) {
  HLOCK_REQUIRE(!peer.node.is_none() && peer.node != self_,
                "peer must be another real node");
  MutexLock guard(channels_mutex_);
  auto& slot = channels_[peer.node.value()];
  if (!slot) slot = std::make_unique<Channel>();
  MutexLock send_guard(slot->send_mutex);
  slot->port = peer.port;
}

TcpNode::Channel& TcpNode::channel_to(proto::NodeId to) {
  MutexLock guard(channels_mutex_);
  const auto it = channels_.find(to.value());
  HLOCK_REQUIRE(it != channels_.end(), "unknown peer: " + to_string(to));
  return *it->second;
}

void TcpNode::send_all(std::span<const proto::Message> messages) {
  if (stopping_.load()) return;
  // Consecutive same-peer runs travel as one batch frame each; runs never
  // reorder, so TCP's in-order channel keeps per-channel FIFO intact.
  std::size_t begin = 0;
  while (begin < messages.size()) {
    std::size_t end = begin;
    do {
      HLOCK_REQUIRE(messages[end].from == self_,
                    "a TcpNode only sends its own node's messages");
      ++end;
    } while (options_.batching && end < messages.size() &&
             messages[end].to == messages[begin].to);
    send_run(channel_to(messages[begin].to),
             messages.subspan(begin, end - begin));
    begin = end;
  }
}

void TcpNode::send_run(Channel& channel,
                       std::span<const proto::Message> run) {
  // One scratch buffer per sending thread, the length prefix reserved at
  // its front: the steady-state wire image allocates nothing and goes out
  // in one send().
  thread_local std::vector<std::byte> frame;
  begin_frame(frame);
  const bool countable = run.size() <= proto::kMaxBatchMessages;
  if (run.size() == 1) {
    proto::encode_into(run.front(), frame);
  } else if (countable) {
    proto::encode_batch_into(run, frame);
  }
  if (countable && frame.size() - kFrameHeaderBytes <= kMaxFrameBytes) {
    write_with_retry(channel, frame, run.size());
    return;
  }
  if (run.size() == 1) {
    // No frame can carry it; the connection itself is healthy.
    traffic_.counters.send_failures.fetch_add(1, std::memory_order_relaxed);
    HLOCK_LOG(kError, "tcp: a " << frame.size() - kFrameHeaderBytes
                                << "-byte message exceeds the frame cap");
    return;
  }
  const std::size_t half = run.size() / 2;
  send_run(channel, run.first(half));
  send_run(channel, run.subspan(half));
}

void TcpNode::write_with_retry(Channel& channel,
                               std::vector<std::byte>& frame,
                               std::uint64_t message_count) {
  // Retry with exponential backoff, reconnecting on the way: a transient
  // write failure (peer reset, severed channel) must never escape as an
  // exception — callers include receiver threads, where an escaped
  // exception would std::terminate the whole process.
  MutexLock guard(channel.send_mutex);
  std::chrono::milliseconds backoff = options_.initial_backoff;
  for (int attempt = 0; attempt < options_.max_send_attempts; ++attempt) {
    if (stopping_.load()) return;
    if (attempt > 0) {
      traffic_.counters.send_retries.fetch_add(1, std::memory_order_relaxed);
      {
        // A real-time backoff sleep must not stall an explored schedule.
        sched::BlockingRegion region;
        std::this_thread::sleep_for(backoff);
      }
      backoff = std::min(backoff * 2, options_.max_backoff);
    }
    if (channel.fd < 0) {
      try {
        sched::BlockingRegion region;
        channel.fd = connect_loopback(channel.port);
        if (attempt > 0) {
          traffic_.counters.reconnects.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
      } catch (const UsageError&) {
        continue;  // destination not accepting right now; back off, retry
      }
    }
    bool wrote = false;
    {
      sched::BlockingRegion region;
      wrote = write_frame_body(channel.fd, frame);
    }
    if (wrote) {
      traffic_.messages.fetch_add(message_count, std::memory_order_relaxed);
      traffic_.bytes.fetch_add(frame.size(), std::memory_order_relaxed);
      return;
    }
    ::close(channel.fd);
    channel.fd = -1;
  }
  traffic_.counters.send_failures.fetch_add(1, std::memory_order_relaxed);
  HLOCK_LOG(kError, "tcp: send from " << to_string(self_) << " failed after "
                                      << options_.max_send_attempts
                                      << " attempts; frame dropped");
}

bool TcpNode::sever_channel(proto::NodeId to) {
  Channel* channel = nullptr;
  {
    MutexLock guard(channels_mutex_);
    const auto it = channels_.find(to.value());
    if (it == channels_.end()) return false;
    channel = it->second.get();
  }
  MutexLock guard(channel->send_mutex);
  if (channel->fd < 0) return false;
  // Half-kill the socket but leave the stale fd in place: the sender only
  // discovers the failure when its next write returns an error.
  ::shutdown(channel->fd, SHUT_RDWR);
  return true;
}

std::optional<proto::Message> TcpNode::recv_for(
    proto::NodeId node, std::chrono::milliseconds timeout) {
  HLOCK_REQUIRE(node == self_, "a TcpNode only receives for its own node");
  const Clock::time_point deadline = timeout == std::chrono::milliseconds::max()
                                         ? Clock::time_point::max()
                                         : Clock::now() + timeout;
  MutexLock guard(recv_mutex_);
  if (!fill(deadline)) return std::nullopt;
  proto::Message message = std::move(pending_.front());
  pending_.pop_front();
  depth_.fetch_sub(1, std::memory_order_relaxed);
  return message;
}

std::vector<proto::Message> TcpNode::recv_ready(proto::NodeId node) {
  HLOCK_REQUIRE(node == self_, "a TcpNode only receives for its own node");
  MutexLock guard(recv_mutex_);
  if (!fill(Clock::time_point::max())) return {};
  std::vector<proto::Message> ready(std::make_move_iterator(pending_.begin()),
                                   std::make_move_iterator(pending_.end()));
  pending_.clear();
  depth_.fetch_sub(ready.size(), std::memory_order_relaxed);
  return ready;
}

bool TcpNode::fill(Clock::time_point deadline) {
  while (pending_.empty()) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    const int timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
            .count(),
        0, INT_MAX));
    epoll_event events[kMaxEvents];
    int ready = 0;
    {
      // The consumer parks in the kernel, outside the sync layer.
      sched::BlockingRegion region;
      ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    }
    if (ready < 0 && errno != EINTR) return false;
    for (int i = 0; i < ready; ++i) {
      // The wake fd needs no handling: stopping_ is checked above.
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        for (int conn; (conn = ::accept4(listen_fd_, nullptr, nullptr,
                                         SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0;) {
          if (!watch(epoll_fd_, conn)) {
            ::close(conn);
          } else {
            inbound_[conn].buffer.resize(kReadBufferBytes);
          }
        }
      } else if (const auto it = inbound_.find(fd);
                 it != inbound_.end() && !read_connection(fd, it->second)) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        inbound_.erase(it);
      }
    }
    if (ready == 0 && timeout_ms == 0) return false;  // deadline passed
  }
  return true;
}

bool TcpNode::read_connection(int fd, Inbound& in) {
  for (;;) {
    const ssize_t n = ::recv(fd, in.buffer.data() + in.used,
                             in.buffer.size() - in.used, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    if (n == 0) return false;  // EOF; a partial frame dies with it
    const bool filled = in.used + static_cast<std::size_t>(n) ==
                        in.buffer.size();
    in.used += static_cast<std::size_t>(n);
    std::size_t at = 0;
    while (in.used - at >= kFrameHeaderBytes) {
      const std::uint32_t size = frame_length(in.buffer.data() + at);
      const bool corrupt = size == 0 || size > kMaxFrameBytes;
      if (!corrupt && in.used - at - kFrameHeaderBytes < size) break;
      if (corrupt ||
          !decode_frame({in.buffer.data() + at + kFrameHeaderBytes, size})) {
        HLOCK_LOG(kWarn, "tcp: node " << to_string(self_)
                                      << " got a corrupt frame; "
                                         "connection closed");
        return false;
      }
      at += kFrameHeaderBytes + size;
    }
    // Keep the partial frame at the front, and make room for all of it.
    if (at > 0) {
      std::memmove(in.buffer.data(), in.buffer.data() + at, in.used - at);
      in.used -= at;
    }
    if (in.used >= kFrameHeaderBytes) {
      const std::size_t need =
          kFrameHeaderBytes + frame_length(in.buffer.data());
      if (in.buffer.size() < need) in.buffer.resize(need);
    }
    if (!filled) return true;  // the socket is drained; no EAGAIN round trip
  }
}

bool TcpNode::decode_frame(std::span<const std::byte> body) {
  if (!proto::is_batch_frame(body)) {
    std::optional<proto::Message> message = proto::decode(body);
    if (message) admit(std::move(*message));
    return message.has_value();
  }
  std::optional<std::vector<proto::Message>> batch = proto::decode_batch(body);
  if (!batch) return false;
  for (proto::Message& message : *batch) admit(std::move(message));
  return true;
}

void TcpNode::admit(proto::Message&& message) {
  if (message.to == self_) {
    pending_.push_back(std::move(message));
    depth_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // A misaddressed message is the sender's bug, not this connection's:
  // discard the one message and keep the channel alive — dropping the
  // connection would silently sever every later message on it.
  traffic_.counters.misaddressed_frames.fetch_add(1,
                                                   std::memory_order_relaxed);
  HLOCK_LOG(kWarn, "tcp: frame addressed to " << to_string(message.to)
                                              << " arrived at node "
                                              << to_string(self_)
                                              << "; message discarded");
}

void TcpNode::shutdown() {
  if (stopping_.exchange(true)) return;
  // The eventfd stays readable, so every current and later poll returns.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t woke = ::write(wake_fd_, &one, sizeof one);
  // Refuse new connections now; the fd itself closes with the node.
  ::shutdown(listen_fd_, SHUT_RDWR);
  MutexLock guard(channels_mutex_);
  for (auto& [node, channel] : channels_) {
    MutexLock send_guard(channel->send_mutex);
    if (channel->fd >= 0) {
      ::shutdown(channel->fd, SHUT_RDWR);
      ::close(channel->fd);
      channel->fd = -1;
    }
  }
}

}  // namespace hlock::transport
