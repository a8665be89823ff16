// Tests of the in-process transport and its mailbox primitive.
#include "transport/inproc_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "transport/mailbox.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NaimiToken;
using proto::NodeId;

Message make_message(std::uint32_t from, std::uint32_t to) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::HierRequest{NodeId{from}, LockMode::kR, 0}};
}

TEST(Mailbox, DeliversInDeliveryTimeOrder) {
  Mailbox box;
  const auto now = Mailbox::Clock::now();
  box.push(make_message(2, 0), now + std::chrono::microseconds(200));
  box.push(make_message(1, 0), now + std::chrono::microseconds(100));
  const auto first = box.pop();
  const auto second = box.pop();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->from, NodeId{1});
  EXPECT_EQ(second->from, NodeId{2});
}

TEST(Mailbox, PopBlocksUntilMessageMatures) {
  Mailbox box;
  const auto start = Mailbox::Clock::now();
  box.push(make_message(1, 0), start + std::chrono::milliseconds(20));
  const auto message = box.pop();
  ASSERT_TRUE(message.has_value());
  EXPECT_GE(Mailbox::Clock::now() - start, std::chrono::milliseconds(19));
}

TEST(Mailbox, PopUntilTimesOut) {
  Mailbox box;
  const auto result =
      box.pop_until(Mailbox::Clock::now() + std::chrono::milliseconds(10));
  EXPECT_FALSE(result.has_value());
}

TEST(Mailbox, PopUntilDeliversMessageDueExactlyAtDeadline) {
  // Deadline edge: when the head's delivery time coincides with the
  // caller's deadline, the matured message wins over the timeout.
  Mailbox box;
  const auto deadline =
      Mailbox::Clock::now() + std::chrono::milliseconds(25);
  box.push(make_message(1, 0), deadline);
  const auto message = box.pop_until(deadline);
  ASSERT_TRUE(message.has_value()) << "due == deadline returned timeout";
  EXPECT_EQ(message->from, NodeId{1});
}

TEST(Mailbox, PopUntilTimesOutWhenHeadMaturesAfterDeadline) {
  Mailbox box;
  const auto deadline =
      Mailbox::Clock::now() + std::chrono::milliseconds(15);
  box.push(make_message(1, 0), deadline + std::chrono::milliseconds(30));
  EXPECT_FALSE(box.pop_until(deadline).has_value());
  // The unripe message stays deliverable afterwards.
  EXPECT_TRUE(box.pop().has_value());
}

TEST(Mailbox, CloseWakesBlockedConsumer) {
  Mailbox box;
  std::thread consumer([&box] {
    const auto result = box.pop();
    EXPECT_FALSE(result.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  box.close();
  consumer.join();
}

TEST(Mailbox, CloseDropsNewPushesButDrainsExisting) {
  Mailbox box;
  box.push(make_message(1, 0), Mailbox::Clock::now());
  box.close();
  box.push(make_message(2, 0), Mailbox::Clock::now());
  EXPECT_TRUE(box.pop().has_value());
  EXPECT_FALSE(box.pop().has_value());
  EXPECT_EQ(box.pushed(), 1u);
}

TEST(Mailbox, CrossThreadProducerConsumer) {
  Mailbox box;
  constexpr int kMessages = 500;
  std::thread producer([&box] {
    for (int i = 0; i < kMessages; ++i) {
      box.push(make_message(1, 0), Mailbox::Clock::now());
    }
    box.close();
  });
  int received = 0;
  while (box.pop().has_value()) ++received;
  producer.join();
  EXPECT_EQ(received, kMessages);
}

TEST(InProcTransport, RoutesToDestination) {
  InProcTransport transport{InProcOptions{3}};
  transport.send(make_message(0, 2));
  const auto received =
      transport.recv_for(NodeId{2}, std::chrono::milliseconds(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->from, NodeId{0});
  EXPECT_EQ(transport.messages_sent(), 1u);
  // Nothing for node 1.
  EXPECT_FALSE(
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(1)).has_value());
}

TEST(InProcTransport, CodecRoundTripPreservesAllPayloads) {
  InProcTransport transport{InProcOptions{2}};
  const Message token{NodeId{0}, NodeId{1}, LockId{7},
                      proto::HierToken{LockMode::kW, LockMode::kIR,
                                       {proto::QueuedRequest{
                                           NodeId{0}, LockMode::kR, 3}}}};
  transport.send(token);
  const auto received =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, token);
}

TEST(InProcTransport, ChannelFifoUnderRandomLatency) {
  InProcOptions options;
  options.node_count = 2;
  options.latency = DurationDist::uniform(SimTime::us(300), 0.9);
  InProcTransport transport{options};
  constexpr std::uint64_t kCount = 64;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    transport.send(Message{NodeId{0}, NodeId{1}, LockId{0},
                           proto::NaimiRequest{NodeId{0}, i}});
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const auto received =
        transport.recv_for(NodeId{1}, std::chrono::milliseconds(500));
    ASSERT_TRUE(received.has_value());
    const auto* request =
        std::get_if<proto::NaimiRequest>(&received->payload);
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->seq, i) << "FIFO violated on the channel";
  }
}

TEST(InProcTransport, UnknownDestinationRejected) {
  InProcTransport transport{InProcOptions{2}};
  EXPECT_THROW(transport.send(make_message(0, 9)), UsageError);
}

TEST(Mailbox, PushAllPreservesBurstOrder) {
  Mailbox box;
  std::vector<Message> burst;
  for (std::uint32_t i = 1; i <= 8; ++i) burst.push_back(make_message(i, 0));
  box.push_all(std::move(burst), Mailbox::Clock::now());
  EXPECT_EQ(box.pushed(), 8u);
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const auto message = box.pop();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->from, NodeId{i});
  }
}

TEST(Mailbox, PopAllReadyDrainsOnlyMaturedMessages) {
  Mailbox box;
  const auto now = Mailbox::Clock::now();
  box.push(make_message(1, 0), now);
  box.push(make_message(2, 0), now);
  // Not yet deliverable: must stay behind after the drain.
  box.push(make_message(3, 0), now + std::chrono::seconds(60));
  const auto drained = box.pop_all_ready();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].from, NodeId{1});
  EXPECT_EQ(drained[1].from, NodeId{2});
  EXPECT_FALSE(
      box.pop_until(Mailbox::Clock::now() + std::chrono::milliseconds(5))
          .has_value());
}

TEST(Mailbox, PopAllReadyReturnsEmptyOnlyWhenClosedAndDrained) {
  Mailbox box;
  box.push(make_message(1, 0), Mailbox::Clock::now());
  box.close();
  EXPECT_EQ(box.pop_all_ready().size(), 1u);
  EXPECT_TRUE(box.pop_all_ready().empty());
}

TEST(Mailbox, PopAllReadyBlocksUntilFirstMessageMatures) {
  Mailbox box;
  const auto start = Mailbox::Clock::now();
  box.push(make_message(1, 0), start + std::chrono::milliseconds(20));
  const auto drained = box.pop_all_ready();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_GE(Mailbox::Clock::now() - start, std::chrono::milliseconds(19));
}

// send_batch must look identical to per-message send from the receiver's
// point of view, with batching on or off. The protocol layers never learn
// which path shipped their messages.
class InProcBatchTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(
    BatchingOnOff, InProcBatchTest, ::testing::Values(true, false),
    [](const ::testing::TestParamInfo<bool>& param_info) {
      return std::string{param_info.param ? "Batched" : "PerMessage"};
    });

TEST_P(InProcBatchTest, SendBatchPreservesChannelFifo) {
  InProcOptions options;
  options.node_count = 2;
  options.batching = GetParam();
  InProcTransport transport{options};
  std::vector<Message> burst;
  for (std::uint64_t i = 0; i < 32; ++i) {
    burst.push_back(Message{NodeId{0}, NodeId{1}, LockId{0},
                            proto::NaimiRequest{NodeId{0}, i}});
  }
  transport.send_batch(std::move(burst));
  EXPECT_EQ(transport.messages_sent(), 32u);
  std::uint64_t expected = 0;
  while (expected < 32) {
    const auto ready = transport.recv_ready(NodeId{1});
    ASSERT_FALSE(ready.empty()) << "transport drained early";
    for (const auto& message : ready) {
      const auto* request = std::get_if<proto::NaimiRequest>(&message.payload);
      ASSERT_NE(request, nullptr);
      EXPECT_EQ(request->seq, expected++) << "FIFO violated under batching";
    }
  }
}

TEST_P(InProcBatchTest, SendBatchSplitsMixedDestinations) {
  InProcOptions options;
  options.node_count = 3;
  options.batching = GetParam();
  InProcTransport transport{options};
  // Alternating destinations force run boundaries inside the burst.
  transport.send_batch({make_message(0, 1), make_message(0, 2),
                        make_message(0, 1), make_message(0, 2),
                        make_message(0, 1)});
  std::size_t to_one = 0;
  std::size_t to_two = 0;
  while (to_one < 3) to_one += transport.recv_ready(NodeId{1}).size();
  while (to_two < 2) to_two += transport.recv_ready(NodeId{2}).size();
  EXPECT_EQ(to_one, 3u);
  EXPECT_EQ(to_two, 2u);
  EXPECT_EQ(transport.messages_sent(), 5u);
}

TEST_P(InProcBatchTest, SendBatchRoundTripsEveryPayloadIntact) {
  InProcOptions options;
  options.node_count = 2;
  options.batching = GetParam();
  InProcTransport transport{options};
  const Message token{NodeId{0}, NodeId{1}, LockId{7},
                      proto::HierToken{LockMode::kW, LockMode::kIR,
                                       {proto::QueuedRequest{
                                           NodeId{0}, LockMode::kR, 3}}}};
  const Message release{NodeId{0}, NodeId{1}, LockId{7},
                        proto::HierRelease{LockMode::kNL, 2}};
  transport.send_batch({token, release});
  std::vector<Message> received;
  while (received.size() < 2) {
    auto ready = transport.recv_ready(NodeId{1});
    received.insert(received.end(), ready.begin(), ready.end());
  }
  EXPECT_EQ(received[0], token);
  EXPECT_EQ(received[1], release);
}

TEST(InProcTransport, BatchingCountsEncodedBytes) {
  InProcTransport transport{InProcOptions{2}};
  transport.send_batch({make_message(0, 1), make_message(0, 1)});
  // Batch envelope: 1-byte marker + u32 count + per message u32 length
  // prefix on top of each encoded message (>= 34 bytes each).
  EXPECT_GE(transport.bytes_sent(), 2u * (4u + 34u) + 5u);
}

TEST(InProcTransport, EmptySendBatchIsANoOp) {
  InProcTransport transport{InProcOptions{2}};
  transport.send_batch({});
  EXPECT_EQ(transport.messages_sent(), 0u);
  EXPECT_EQ(transport.bytes_sent(), 0u);
}

TEST(InProcTransport, RecvReadyReturnsEmptyAfterShutdown) {
  InProcTransport transport{InProcOptions{2}};
  transport.send(make_message(0, 1));
  transport.shutdown();
  // Pending messages drain first; only then does empty mean "shut down".
  std::size_t drained = 0;
  while (true) {
    const auto ready = transport.recv_ready(NodeId{1});
    if (ready.empty()) break;
    drained += ready.size();
  }
  EXPECT_EQ(drained, 1u);
}

TEST(InProcTransport, ShutdownUnblocksReceivers) {
  InProcTransport transport{InProcOptions{2}};
  std::thread receiver([&transport] {
    EXPECT_FALSE(transport.recv(NodeId{1}).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  transport.shutdown();
  receiver.join();
}

// ---- Consumer claim (run-to-completion delivery, docs/transports.md) ----

/// Runs pop_all_ready() on its own thread until it returns empty, keeping
/// every batch it got.
class ReceiverThread {
 public:
  explicit ReceiverThread(Mailbox& box)
      : thread_([this, &box] {
          for (;;) {
            std::vector<Message> batch = box.pop_all_ready();
            if (batch.empty()) break;
            for (const Message& m : batch) froms_.push_back(m.from);
            received_.fetch_add(batch.size());
            returns_.fetch_add(1);
          }
        }) {}
  ~ReceiverThread() {
    if (thread_.joinable()) thread_.join();
  }

  /// Waits up to 5 s for `count` messages in total.
  bool wait_for(std::size_t count) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (received_.load() < count) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }
  std::size_t returns() const { return returns_.load(); }
  /// Senders in receive order; read after join().
  const std::vector<NodeId>& froms() const { return froms_; }
  void join() { thread_.join(); }

 private:
  std::atomic<std::size_t> received_{0};
  std::atomic<std::size_t> returns_{0};
  std::vector<NodeId> froms_;
  std::thread thread_;
};

TEST(MailboxClaim, ClaimingPushLeavesParkedReceiverParked) {
  Mailbox box;
  ReceiverThread receiver(box);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // parks

  ASSERT_TRUE(box.push(make_message(1, 0), Mailbox::Clock::now(), true));
  // While the claim is held, an ordinary push joins the holder's drain
  // instead of waking the receiver.
  EXPECT_FALSE(box.push(make_message(2, 0), Mailbox::Clock::now()));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::vector<Message> taken = box.take_claimed();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].from, NodeId{1});
  EXPECT_EQ(taken[1].from, NodeId{2});
  EXPECT_TRUE(box.take_claimed().empty());  // releases the claim
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(receiver.returns(), 0u);

  // Unclaimed again: the next push is the receiver's.
  EXPECT_FALSE(box.push(make_message(3, 0), Mailbox::Clock::now()));
  EXPECT_TRUE(receiver.wait_for(1));
  box.close();
  receiver.join();
  EXPECT_EQ(receiver.froms(), std::vector<NodeId>{NodeId{3}});
}

TEST(MailboxClaim, ReleaseIsAtomicWithSeeingEmptySoNothingStrands) {
  // A producer keeps pushing while a helper repeatedly claims and drains.
  // Every message must reach the helper or the receiver; one pushed between
  // "nothing due" and the release would otherwise sit unannounced until
  // the next push.
  constexpr std::size_t kProduced = 4000;
  constexpr std::size_t kHelperRounds = 400;
  Mailbox box;
  ReceiverThread receiver(box);
  std::atomic<std::size_t> taken_by_helper{0};
  std::thread producer([&box] {
    for (std::size_t i = 0; i < kProduced; ++i) {
      box.push(make_message(1, 0), Mailbox::Clock::now());
    }
  });
  std::thread helper([&box, &taken_by_helper] {
    for (std::size_t i = 0; i < kHelperRounds; ++i) {
      if (!box.push(make_message(2, 0), Mailbox::Clock::now(), true)) {
        continue;  // receiver or another push owned it: it is theirs
      }
      for (auto batch = box.take_claimed(); !batch.empty();
           batch = box.take_claimed()) {
        taken_by_helper.fetch_add(batch.size());
      }
    }
  });
  producer.join();
  helper.join();
  const std::size_t total = kProduced + kHelperRounds;
  EXPECT_TRUE(receiver.wait_for(total - taken_by_helper.load()))
      << "a message was stranded behind a released claim";
  box.close();
  receiver.join();
}

TEST(MailboxClaim, CloseWhileHelperHoldsClaimEndsRecvReadyOnRelease) {
  Mailbox box;
  ReceiverThread receiver(box);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(box.push(make_message(1, 0), Mailbox::Clock::now(), true));
  box.close();
  EXPECT_EQ(box.take_claimed().size(), 1u);
  EXPECT_TRUE(box.take_claimed().empty());  // release wakes the receiver
  receiver.join();  // returns: closed, empty, unclaimed
  EXPECT_EQ(receiver.returns(), 0u);
}

TEST(MailboxClaim, FutureDatedMessagesAreNeverClaimed) {
  Mailbox box;
  const auto now = Mailbox::Clock::now();
  EXPECT_FALSE(box.push(make_message(1, 0), now + std::chrono::hours(1),
                        true));
  EXPECT_FALSE(box.push_all({make_message(2, 0)},
                            now + std::chrono::hours(1), true));
  // A due message claims; the drain takes only what is due and leaves the
  // delayed ones to the receiver.
  ASSERT_TRUE(box.push(make_message(3, 0), now, true));
  const std::vector<Message> taken = box.take_claimed();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].from, NodeId{3});
  EXPECT_TRUE(box.take_claimed().empty());
  EXPECT_EQ(box.size(), 2u);
}

TEST(MailboxClaim, PushAllClaimsTheWholeBurst) {
  Mailbox box;
  ASSERT_TRUE(box.push_all({make_message(1, 0), make_message(2, 0)},
                           Mailbox::Clock::now(), true));
  EXPECT_FALSE(box.push(make_message(3, 0), Mailbox::Clock::now(), true));
  const std::vector<Message> taken = box.take_claimed();
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[2].from, NodeId{3});
}

Message release_message(std::uint32_t from, std::uint32_t to) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::HierRelease{LockMode::kNL, 0}};
}

TEST(InProcInline, CallersThatNeverClaimSeeUnchangedDelivery) {
  InProcTransport transport{InProcOptions{2}};
  // A waiting client alone claims nothing: this thread has no scope.
  const InProcTransport::WaitingClient waiting(&transport, NodeId{1},
                                               LockId{5});
  transport.send(make_message(0, 1));
  transport.send_batch({make_message(0, 1), make_message(0, 1)});
  EXPECT_EQ(transport.recv_ready(NodeId{1}).size(), 3u);
}

TEST(InProcInline, ScopeClaimsOnlyCriticalPathMessagesToWaitingNodes) {
  InProcTransport transport{InProcOptions{3}};
  InProcTransport::InlineScope scope(&transport);

  // Node 1 has no waiting client: the request waits for its receiver.
  transport.send(make_message(0, 1));
  EXPECT_FALSE(scope.claimed());
  EXPECT_EQ(transport.inbox_depth(NodeId{1}), 1u);

  const InProcTransport::WaitingClient waiting(&transport, NodeId{2},
                                               LockId{5});
  // Releases never claim, and neither does a request for the very lock
  // the waiting client waits on (the node would only queue it).
  transport.send(release_message(0, 2));
  Message same_lock = make_message(0, 2);
  same_lock.lock = LockId{5};
  transport.send(same_lock);
  EXPECT_FALSE(scope.claimed());
  EXPECT_EQ(transport.inbox_depth(NodeId{2}), 2u);

  // A request for another lock claims node 2's mailbox; the two messages
  // already waiting there ride along, in order.
  transport.send(make_message(0, 2));
  ASSERT_TRUE(scope.claimed());
  std::vector<proto::MessageKind> drained;
  scope.drain([&drained](NodeId node, std::vector<Message>& batch) {
    EXPECT_EQ(node, NodeId{2});
    for (const Message& m : batch) drained.push_back(proto::kind_of(m.payload));
  });
  EXPECT_FALSE(scope.claimed());
  EXPECT_EQ(drained, (std::vector<proto::MessageKind>{
                         proto::MessageKind::kHierRelease,
                         proto::MessageKind::kHierRequest,
                         proto::MessageKind::kHierRequest}));
}

TEST(InProcInline, MessagesDispatchedInsideADrainMayClaimFurtherNodes) {
  InProcTransport transport{InProcOptions{3}};
  const InProcTransport::WaitingClient waiting1(&transport, NodeId{1},
                                                LockId{5});
  const InProcTransport::WaitingClient waiting2(&transport, NodeId{2},
                                                LockId{5});
  InProcTransport::InlineScope scope(&transport);
  transport.send(make_message(0, 1));
  std::vector<NodeId> order;
  scope.drain([&](NodeId node, std::vector<Message>& batch) {
    order.push_back(node);
    // Node 1 "answers" by messaging node 2 — claimed and drained in turn.
    if (node == NodeId{1}) transport.send_batch({make_message(1, 2)});
    EXPECT_EQ(batch.size(), 1u);
  });
  EXPECT_EQ(order, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
}

TEST(InProcInline, ScopeEndingUndrainedHandsTheClaimToTheReceiver) {
  InProcTransport transport{InProcOptions{2}};
  const InProcTransport::WaitingClient waiting(&transport, NodeId{1},
                                               LockId{5});
  {
    InProcTransport::InlineScope scope(&transport);
    transport.send(make_message(0, 1));
    ASSERT_TRUE(scope.claimed());
  }
  EXPECT_EQ(transport.recv_ready(NodeId{1}).size(), 1u);
}

TEST(InProcInline, DelayedTrafficIsNeverClaimed) {
  InProcOptions options{2};
  options.latency = DurationDist::constant(SimTime::ms(1));
  InProcTransport transport{options};
  const InProcTransport::WaitingClient waiting(&transport, NodeId{1},
                                               LockId{5});
  InProcTransport::InlineScope scope(&transport);
  transport.send(make_message(0, 1));
  EXPECT_FALSE(scope.claimed());
  EXPECT_EQ(transport.recv_ready(NodeId{1}).size(), 1u);
}

}  // namespace
}  // namespace hlock::transport
