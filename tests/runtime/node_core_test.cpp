// Unit tests of runtime::NodeCore, the one place a node's step is run
// (runtime/node_core.hpp): Lamport stamping, the per-step order of the port
// calls, the halted-call buffer and its replay after the Manager's message
// replay, crash-stop discarding and re-entrant port callbacks. Cores are
// wired by hand through recording ports; the test moves their messages.
#include "runtime/node_core.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace hlock::runtime {
namespace {

using proto::Message;
using proto::MessageKind;

/// One port call, as the core made it.
struct PortCall {
  enum class Type { kSink, kSend, kGrant };
  Type type;
  /// kSink: the events; kSend: the messages (as stamped).
  std::vector<trace::TraceEvent> events;
  std::vector<Message> messages;
  /// kGrant.
  LockId lock{};
  bool upgraded = false;
};

class RecordingPort final : public NodePort {
 public:
  void sink(std::vector<trace::TraceEvent>& events) override {
    calls.push_back({PortCall::Type::kSink, events, {}, {}, false});
  }
  void send(std::vector<Message>& messages) override {
    calls.push_back({PortCall::Type::kSend, {}, messages, {}, false});
    outbox.insert(outbox.end(), messages.begin(), messages.end());
  }
  void grant(LockId lock, bool upgraded) override {
    calls.push_back({PortCall::Type::kGrant, {}, {}, lock, upgraded});
    if (on_grant) on_grant(lock, upgraded);
  }
  SimTime now() override { return time; }

  /// The calls of one kind, in order.
  std::vector<PortCall> of(PortCall::Type type) const {
    std::vector<PortCall> out;
    for (const PortCall& call : calls) {
      if (call.type == type) out.push_back(call);
    }
    return out;
  }
  /// Messages sent but not yet taken by take().
  std::vector<Message> outbox;
  std::vector<PortCall> calls;
  std::function<void(LockId, bool)> on_grant;
  SimTime time = SimTime::ms(7);
};

/// One node: its port, clock and core (hierarchical protocol, trace events
/// on, node 0 the initial root unless given).
struct TestNode {
  TestNode(NodeId self, std::size_t node_count, bool recovery,
           NodeId root = NodeId{0})
      : core(self, node_count,
             make_engine(Protocol::kHierarchical, self, node_count, root,
                         traced(), recovery),
             options(recovery), clock, port) {}

  static core::HierConfig traced() {
    core::HierConfig config;
    config.trace_events = true;
    return config;
  }
  static recovery::Options options(bool enabled) {
    recovery::Options options;
    options.enabled = enabled;
    return options;
  }

  /// Removes and returns the sent messages addressed to `to`, in order.
  std::vector<Message> take(NodeId to) {
    std::vector<Message> taken;
    std::vector<Message> rest;
    for (Message& message : port.outbox) {
      (message.to == to ? taken : rest).push_back(std::move(message));
    }
    port.outbox = std::move(rest);
    return taken;
  }

  RecordingPort port;
  obs::AtomicLamportClock clock;
  NodeCore core;
};

/// Delivers every message `from` has sent to `to`, in send order.
void pump(TestNode& from, TestNode& to, NodeId to_id) {
  for (const Message& message : from.take(to_id)) to.core.receive(message);
}

constexpr LockId kLock{1};

TEST(NodeCore, EventsOfOneStepShareATickAndEachMessageTicksFurther) {
  TestNode node1{NodeId{1}, 2, false};
  node1.core.request(kLock, LockMode::kW);  // remote root: one request out

  const auto sinks = node1.port.of(PortCall::Type::kSink);
  const auto sends = node1.port.of(PortCall::Type::kSend);
  ASSERT_EQ(sinks.size(), 1u);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_FALSE(sinks[0].events.empty());
  for (const trace::TraceEvent& event : sinks[0].events) {
    EXPECT_EQ(event.lamport, 1u);  // the step's one tick
    EXPECT_EQ(event.at, SimTime::ms(7));  // the port's time
  }
  ASSERT_EQ(sends[0].messages.size(), 1u);
  EXPECT_EQ(sends[0].messages[0].lamport, 2u);
  EXPECT_EQ(node1.clock.current(), 2u);
}

TEST(NodeCore, ReceiveMergesTheSendersClock) {
  TestNode node0{NodeId{0}, 2, false};
  TestNode node1{NodeId{1}, 2, false};
  for (int i = 0; i < 5; ++i) node1.clock.tick();  // node 1 runs ahead
  node1.core.request(kLock, LockMode::kW);
  const std::vector<Message> sent = node1.take(NodeId{0});
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].lamport, 7u);  // step 6, send 7

  node0.core.receive(sent[0]);  // observe: max(0, 7) + 1 = 8; step: 9
  const auto sinks = node0.port.of(PortCall::Type::kSink);
  ASSERT_EQ(sinks.size(), 1u);
  for (const trace::TraceEvent& event : sinks[0].events) {
    EXPECT_EQ(event.lamport, 9u);
  }
  const auto sends = node0.port.of(PortCall::Type::kSend);
  ASSERT_EQ(sends.size(), 1u);  // the token, one send for the whole step
  for (std::size_t i = 0; i < sends[0].messages.size(); ++i) {
    EXPECT_EQ(sends[0].messages[i].lamport, 10u + i);
  }
}

TEST(NodeCore, EachStepSinksThenSendsThenGrants) {
  // Node 0 holds W; nodes 1 and 2 queue R requests at it. Its release
  // ships the token to node 1, which in that one receive step enters its
  // critical section and grants node 2's compatible R from the shipped
  // queue: events, a message and a grant.
  TestNode node0{NodeId{0}, 3, false};
  TestNode node1{NodeId{1}, 3, false};
  TestNode node2{NodeId{2}, 3, false};
  node0.core.request(kLock, LockMode::kW);
  node1.core.request(kLock, LockMode::kR);
  pump(node1, node0, NodeId{0});
  node2.core.request(kLock, LockMode::kR);
  pump(node2, node0, NodeId{0});
  node0.core.release(kLock);
  node1.port.calls.clear();
  pump(node0, node1, NodeId{1});

  const std::vector<PortCall>& calls = node1.port.calls;
  std::vector<PortCall::Type> types;
  for (const PortCall& call : calls) types.push_back(call.type);
  EXPECT_EQ(types, (std::vector<PortCall::Type>{PortCall::Type::kSink,
                                                PortCall::Type::kSend,
                                                PortCall::Type::kGrant}));
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[2].lock, kLock);
  EXPECT_FALSE(calls[2].upgraded);
  // One step: its events share one tick, below its messages' ticks.
  const std::uint64_t step = calls[0].events.front().lamport;
  for (const trace::TraceEvent& event : calls[0].events) {
    EXPECT_EQ(event.lamport, step);
  }
  for (const Message& message : calls[1].messages) {
    EXPECT_GT(message.lamport, step);
  }
}

TEST(NodeCore, GrantCallbackMayReEnterTheCore) {
  TestNode node0{NodeId{0}, 2, false};
  std::vector<std::uint32_t> granted;
  node0.port.on_grant = [&](LockId lock, bool) {
    granted.push_back(lock.value());
    // As SimWorkloadDriver does: issue the next request from inside the
    // grant handler.
    if (lock.value() < 3) {
      node0.core.request(LockId{lock.value() + 1}, LockMode::kR);
    }
  };
  node0.core.request(kLock, LockMode::kW);
  EXPECT_EQ(granted, (std::vector<std::uint32_t>{1, 2, 3}));
  for (std::uint32_t lock = 1; lock <= 3; ++lock) {
    EXPECT_TRUE(node0.core.engine().holds(LockId{lock}));
  }
  // Three steps, three ticks; the nested steps stamp after the outer one.
  const auto sinks = node0.port.of(PortCall::Type::kSink);
  ASSERT_EQ(sinks.size(), 3u);
  EXPECT_EQ(sinks[0].events.front().lamport, 1u);
  EXPECT_EQ(sinks[1].events.front().lamport, 2u);
  EXPECT_EQ(sinks[2].events.front().lamport, 3u);
}

/// A 4-node cluster whose node 2 has died: node 0 coordinates, nodes 1 and
/// 3 survive. Node 1 starts as every lock's token holder.
class NodeCoreRecoveryTest : public ::testing::Test {
 protected:
  static constexpr NodeId kRoot{1};
  static constexpr LockId kHeldU{3};   ///< node 1 holds U before the halt
  static constexpr LockId kShared{5};  ///< node 1 owns its token, idle
  static constexpr LockId kFresh{7};   ///< nobody touches it before

  NodeCoreRecoveryTest() {
    node1.core.request(kHeldU, LockMode::kU);
    node1.core.request(kShared, LockMode::kR);
    node1.core.release(kShared);
    // Everyone hears that node 2 is dead; all three halt.
    for (TestNode* node : {&node0, &node1, &node3}) {
      const NodeId self = node == &node0   ? NodeId{0}
                          : node == &node1 ? NodeId{1}
                                           : NodeId{3};
      const NodeId peer = self == NodeId{0} ? NodeId{1} : NodeId{0};
      node->core.receive(
          Message{peer, self, LockId{0}, proto::Suspect{NodeId{2}}});
      EXPECT_TRUE(node->core.manager()->halted());
    }
  }

  /// Runs the campaign up to node 3's unhalt: reports to the coordinator,
  /// its fences to node 3 only. Node 1 stays halted.
  void fence_all_but_node1() {
    pump(node1, node0, NodeId{0});
    pump(node3, node0, NodeId{0});
    ASSERT_FALSE(node0.core.manager()->halted());
    pump(node0, node3, NodeId{3});
    ASSERT_FALSE(node3.core.manager()->halted());
  }

  TestNode node0{NodeId{0}, 4, true, kRoot};
  TestNode node1{NodeId{1}, 4, true, kRoot};
  TestNode node3{NodeId{3}, 4, true, kRoot};
};

TEST_F(NodeCoreRecoveryTest, HaltedCallsReplayInIssueOrderAfterTheMessages) {
  node1.port.calls.clear();
  node1.core.upgrade(kHeldU);
  node1.core.release(kHeldU);
  node1.core.request(kFresh, LockMode::kW);
  // Buffered: the engine saw none of them.
  EXPECT_TRUE(node1.port.calls.empty());
  EXPECT_TRUE(node1.core.engine().holds(kHeldU));

  // Node 3 unhalts first and asks node 1 — still halted — for kShared; the
  // Manager buffers that request.
  node3.core.request(kShared, LockMode::kR);
  fence_all_but_node1();
  pump(node3, node1, NodeId{1});
  ASSERT_EQ(node1.core.manager()->halted_backlog().size(), 1u);

  pump(node0, node1, NodeId{1});  // the fences: node 1 unhalts
  ASSERT_FALSE(node1.core.manager()->halted());

  // Order after the fences: the replayed message (kShared granted to node
  // 3), then the calls in issue order — the upgrade completes, the release
  // drops the hold, the fresh request goes to its root.
  std::vector<std::string> order;
  for (const PortCall& call : node1.port.calls) {
    if (call.type == PortCall::Type::kGrant) {
      order.push_back("grant " + std::to_string(call.lock.value()) +
                      (call.upgraded ? " upgraded" : ""));
    } else if (call.type == PortCall::Type::kSend) {
      for (const Message& message : call.messages) {
        if (proto::is_recovery_kind(proto::kind_of(message.payload))) continue;
        order.push_back("send " + std::to_string(message.lock.value()) +
                        " to " + std::to_string(message.to.value()));
      }
    }
  }
  EXPECT_EQ(order, (std::vector<std::string>{"send 5 to 3", "grant 3 upgraded",
                                             "send 7 to 0"}));
  EXPECT_FALSE(node1.core.engine().holds(kHeldU));
}

TEST_F(NodeCoreRecoveryTest, CrashDiscardsBothBacklogs) {
  node1.core.request(kFresh, LockMode::kW);  // buffered call
  node3.core.request(kShared, LockMode::kR);
  fence_all_but_node1();
  pump(node3, node1, NodeId{1});  // buffered message
  ASSERT_EQ(node1.core.manager()->halted_backlog().size(), 1u);

  node1.core.crash();
  EXPECT_TRUE(node1.core.manager()->halted_backlog().empty());
  EXPECT_TRUE(node1.core.manager()->parked().empty());

  // Even if a fence reached the crashed core, nothing would replay.
  node1.port.calls.clear();
  pump(node0, node1, NodeId{1});
  ASSERT_FALSE(node1.core.manager()->halted());
  for (const PortCall& call : node1.port.of(PortCall::Type::kSend)) {
    for (const Message& message : call.messages) {
      EXPECT_TRUE(proto::is_recovery_kind(proto::kind_of(message.payload)))
          << proto::to_string(message);
    }
  }
  EXPECT_TRUE(node1.port.of(PortCall::Type::kGrant).empty());
}

}  // namespace
}  // namespace hlock::runtime
