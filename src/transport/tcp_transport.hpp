// TCP loopback transport — the protocol over real sockets, all nodes in
// one process: N TcpNode endpoints (tcp_node.hpp) that know each other's
// ports and share one set of traffic counters. Each node's receiver polls
// that node's own sockets, so the transport starts no threads at all. This
// is the paper's Linux testbed in miniature ("connected by a full-duplex
// FastEther switch utilized through TCP/IP"); nothing in the wire format or
// the socket handling assumes shared memory.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "transport/tcp_node.hpp"

namespace hlock::transport {

/// See file comment.
class TcpTransport final : public Transport {
 public:
  /// Binds `node_count` listeners on loopback. Throws UsageError if
  /// sockets cannot be created.
  explicit TcpTransport(std::size_t node_count, TcpOptions options = {});

  void send(const proto::Message& message) override {
    send_all({&message, 1});
  }
  /// Ships a burst; same-channel runs travel as batch frames when
  /// options.batching is set.
  void send_batch(std::vector<proto::Message> messages) override {
    send_all(messages);
  }
  std::optional<proto::Message> recv(proto::NodeId node) override {
    return node_of(node).recv(node);
  }
  /// Returns every message one poll of `node`'s sockets decodes (empty
  /// once shut down and drained).
  std::vector<proto::Message> recv_ready(proto::NodeId node) override {
    return node_of(node).recv_ready(node);
  }
  std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) override {
    return node_of(node).recv_for(node, timeout);
  }
  void shutdown() override;
  std::uint64_t messages_sent() const override {
    return traffic_.messages.load(std::memory_order_relaxed);
  }
  /// Frame bytes written (length prefixes included).
  std::uint64_t bytes_sent() const override {
    return traffic_.bytes.load(std::memory_order_relaxed);
  }

  /// The loopback port node `node` listens on (diagnostics).
  std::uint16_t port_of(proto::NodeId node) const {
    return node_of(node).port();
  }

  std::size_t node_count() const { return nodes_.size(); }

  /// Retry, reconnect, and bad-frame counters, live.
  const stats::TransportCounters& counters() const {
    return traffic_.counters;
  }

  /// Messages decoded from `node`'s sockets but not yet received.
  std::size_t inbox_depth(proto::NodeId node) const override {
    return node.value() < nodes_.size()
               ? nodes_[node.value()]->inbox_depth(node)
               : 0;
  }

  /// Chaos hook (TcpNode::sever_channel on node `from`). Returns false if
  /// the channel has no live connection yet.
  bool sever_channel(proto::NodeId from, proto::NodeId to) {
    return node_of(from).sever_channel(to);
  }

 private:
  TcpNode& node_of(proto::NodeId node) const;
  void send_all(std::span<const proto::Message> messages);

  TcpTraffic traffic_;
  /// Declared after traffic_, which the nodes count into.
  std::vector<std::unique_ptr<TcpNode>> nodes_;
};

}  // namespace hlock::transport
