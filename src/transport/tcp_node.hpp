// One node's TCP endpoint — the single implementation behind both socket
// transports. A TcpNode owns exactly ONE node's listener, its inbound
// connections, and one outbound connection per peer it sends to; the
// peers are a table of loopback ports. Each OS process of a multi-process
// deployment constructs its own TcpNode (the fork-based integration test,
// tests/transport/multiprocess_test.cpp, runs the full protocol this way),
// and TcpTransport hosts N of them in one process.
//
// Receive side: event-driven, with no threads of its own. The non-blocking
// listener, every inbound connection and a shutdown eventfd sit in one
// epoll set, which the consuming thread polls itself from recv / recv_ready
// / recv_for (inside a sched::BlockingRegion). Readable connections are
// read into small per-connection buffers; complete length-prefixed frames
// (tcp_socket.hpp) are decoded straight into the batch handed back, so a
// message wakes exactly one thread — its consumer — on arrival. A receiver
// that stops polling pushes back on its senders through TCP flow control
// instead of growing an unbounded queue.
//
// Send side: one persistent connection per peer, TCP_NODELAY, one send()
// per frame. A failed write closes the connection and retries with
// exponential backoff, reconnecting on the way. send_batch() coalesces
// same-peer runs into batch frames, split so no frame exceeds
// kMaxFrameBytes. TCP's in-order delivery provides the per-channel FIFO the
// protocol relies on, and batches unpack in emission order.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "stats/metrics.hpp"
#include "transport/transport.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Send-path policy of a TCP endpoint. A failed write closes the channel
/// and retries with exponential backoff — reconnecting on the way —
/// instead of terminating the process on the first transient failure.
struct TcpOptions {
  /// Total write attempts per frame (first try included).
  int max_send_attempts = 5;
  /// Backoff before the first retry; doubles per retry up to `max_backoff`.
  std::chrono::milliseconds initial_backoff{1};
  std::chrono::milliseconds max_backoff{50};
  /// Coalesce same-channel messages of one send_batch() call into batch
  /// frames (protocol-invisible; off = one frame per message).
  bool batching = true;
};

/// Address of one peer (loopback + port; extendable to full addresses).
struct TcpPeer {
  proto::NodeId node;
  std::uint16_t port = 0;
};

/// Traffic totals of one or more endpoints; TcpTransport hands one to all
/// of its nodes so its counters cover the whole cluster.
struct TcpTraffic {
  /// Messages shipped and frame bytes written (length prefixes included).
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  /// Retry, reconnect, and bad-frame counters.
  stats::TransportCounters counters;
};

/// See file comment.
class TcpNode final : public Transport {
 public:
  /// Binds a fresh loopback listener for `self` (ephemeral port). `peers`
  /// lists every OTHER node's port; peers may also be added later via
  /// add_peer() (ports are often only known after all processes bound
  /// their listeners).
  explicit TcpNode(proto::NodeId self, std::vector<TcpPeer> peers = {},
                   TcpOptions options = {});

  /// Adopts an already-bound listening socket (ownership transfers).
  /// Lets a parent process bind all listeners BEFORE forking, so children
  /// know every port with no rendezvous protocol. `shared_traffic`
  /// (optional) collects the node's totals together with other endpoints'
  /// and must outlive the node.
  TcpNode(proto::NodeId self, int adopted_listen_fd,
          std::vector<TcpPeer> peers, TcpOptions options = {},
          TcpTraffic* shared_traffic = nullptr);

  /// Closes every socket. Receivers must have returned (shutdown() wakes
  /// them).
  ~TcpNode() override;

  /// Registers/overrides a peer's address; the next connection to the peer
  /// uses it.
  void add_peer(const TcpPeer& peer) HLOCK_EXCLUDES(channels_mutex_);

  /// The port this node's listener is bound to.
  std::uint16_t port() const { return port_; }
  proto::NodeId self() const { return self_; }

  // Transport interface. Sends require message.from == self() and a
  // registered peer; receives only serve this node. One consumer at a time
  // polls the node (concurrent receivers take turns).
  void send(const proto::Message& message) override {
    send_all({&message, 1});
  }
  void send_batch(std::vector<proto::Message> messages) override {
    send_all(messages);
  }
  /// Ships `messages` (all from self()) like send_batch(), without taking
  /// ownership.
  void send_all(std::span<const proto::Message> messages)
      HLOCK_EXCLUDES(channels_mutex_);
  std::optional<proto::Message> recv(proto::NodeId node) override {
    return recv_for(node, std::chrono::milliseconds::max());
  }
  /// Returns every decoded message the first successful poll yields.
  std::vector<proto::Message> recv_ready(proto::NodeId node) override
      HLOCK_EXCLUDES(recv_mutex_);
  std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) override
      HLOCK_EXCLUDES(recv_mutex_);
  void shutdown() override HLOCK_EXCLUDES(channels_mutex_);
  std::uint64_t messages_sent() const override {
    return traffic_.messages.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const override {
    return traffic_.bytes.load(std::memory_order_relaxed);
  }
  /// Messages decoded from the sockets but not yet handed to a receiver.
  std::size_t inbox_depth(proto::NodeId node) const override {
    return node == self_ ? depth_.load(std::memory_order_relaxed) : 0;
  }

  /// Retry, reconnect, and bad-frame counters, live.
  const stats::TransportCounters& counters() const {
    return traffic_.counters;
  }

  /// Chaos hook: severs the established connection to `to` at the socket
  /// level without telling the sender, so the next send on the channel
  /// fails and exercises the retry/reconnect path. Returns false if the
  /// channel has no live connection yet.
  bool sever_channel(proto::NodeId to) HLOCK_EXCLUDES(channels_mutex_);

 private:
  struct Channel {
    /// Serializes writes on the peer connection and guards its fd.
    Mutex send_mutex;
    std::uint16_t port HLOCK_GUARDED_BY(send_mutex) = 0;
    int fd HLOCK_GUARDED_BY(send_mutex) = -1;
  };

  /// One accepted connection's partial-frame buffer: bytes [0, used) are
  /// received but not yet decoded.
  struct Inbound {
    std::vector<std::byte> buffer;
    std::size_t used = 0;
  };

  Channel& channel_to(proto::NodeId to) HLOCK_EXCLUDES(channels_mutex_);
  /// Ships one same-channel run as frames under kMaxFrameBytes, halving
  /// runs whose frame would not fit.
  void send_run(Channel& channel, std::span<const proto::Message> run);
  /// Writes one frame with the retry / backoff / reconnect policy; counts
  /// `message_count` messages on success.
  void write_with_retry(Channel& channel, std::vector<std::byte>& frame,
                        std::uint64_t message_count);

  /// Polls until a decoded message is pending, the node is shut down, or
  /// `deadline` passes; true if a message is pending.
  bool fill(std::chrono::steady_clock::time_point deadline)
      HLOCK_REQUIRES(recv_mutex_);
  /// Reads what `fd` has and decodes every complete frame; false once the
  /// connection must close (EOF, error, or a corrupt frame).
  bool read_connection(int fd, Inbound& in) HLOCK_REQUIRES(recv_mutex_);
  /// Decodes one frame body into pending_; false if it is corrupt.
  bool decode_frame(std::span<const std::byte> body)
      HLOCK_REQUIRES(recv_mutex_);
  /// Queues a decoded message for the consumer, or counts and discards it
  /// if it is addressed to another node.
  void admit(proto::Message&& message) HLOCK_REQUIRES(recv_mutex_);

  /// Identity, options, and the fds below are fixed at construction.
  const proto::NodeId self_;
  const TcpOptions options_;
  /// Counts into own_traffic_ unless the constructor got a shared one.
  TcpTraffic own_traffic_;
  TcpTraffic& traffic_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int epoll_fd_ = -1;
  /// Made readable (and left readable) by shutdown().
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};

  Mutex recv_mutex_;
  std::map<int, Inbound> inbound_ HLOCK_GUARDED_BY(recv_mutex_);
  /// Decoded messages not yet handed out.
  std::deque<proto::Message> pending_ HLOCK_GUARDED_BY(recv_mutex_);
  std::atomic<std::size_t> depth_{0};

  Mutex channels_mutex_;
  std::map<std::uint32_t, std::unique_ptr<Channel>> channels_
      HLOCK_GUARDED_BY(channels_mutex_);
};

}  // namespace hlock::transport
