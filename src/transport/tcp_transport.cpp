#include "transport/tcp_transport.hpp"

#include "transport/tcp_socket.hpp"
#include "util/check.hpp"

namespace hlock::transport {

TcpTransport::TcpTransport(std::size_t node_count, TcpOptions options) {
  HLOCK_REQUIRE(node_count >= 1, "a transport needs at least one node");
  nodes_.reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<TcpNode>(
        proto::NodeId{i}, listen_loopback(0), std::vector<TcpPeer>{}, options,
        &traffic_));
  }
  for (const auto& node : nodes_) {
    for (const auto& peer : nodes_) {
      if (peer != node) node->add_peer({peer->self(), peer->port()});
    }
  }
}

TcpNode& TcpTransport::node_of(proto::NodeId node) const {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return *nodes_[node.value()];
}

void TcpTransport::send_all(std::span<const proto::Message> messages) {
  // Each same-sender run goes through its sender's endpoint.
  std::size_t begin = 0;
  while (begin < messages.size()) {
    std::size_t end = begin;
    do {
      HLOCK_REQUIRE(messages[end].to.value() < nodes_.size(),
                    "unknown node id");
      ++end;
    } while (end < messages.size() &&
             messages[end].from == messages[begin].from);
    node_of(messages[begin].from)
        .send_all(messages.subspan(begin, end - begin));
    begin = end;
  }
}

void TcpTransport::shutdown() {
  for (auto& node : nodes_) node->shutdown();
}

}  // namespace hlock::transport
