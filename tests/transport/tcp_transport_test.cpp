// Tests of the TCP loopback transport: framing, routing, FIFO, volume,
// shutdown semantics, the event-driven receive path (raw sockets feeding
// split, coalesced and corrupt frames), and the full protocol stack running
// over real sockets.
#include "transport/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <span>
#include <thread>
#include <vector>

#include "proto/codec.hpp"
#include "runtime/thread_cluster.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;

Message make_message(std::uint32_t from, std::uint32_t to,
                     std::uint64_t seq = 0) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::NaimiRequest{NodeId{from}, seq}};
}

TEST(TcpTransport, BindsDistinctLoopbackPorts) {
  TcpTransport transport{3};
  EXPECT_NE(transport.port_of(NodeId{0}), 0);
  EXPECT_NE(transport.port_of(NodeId{0}), transport.port_of(NodeId{1}));
  EXPECT_NE(transport.port_of(NodeId{1}), transport.port_of(NodeId{2}));
}

TEST(TcpTransport, DeliversAcrossRealSockets) {
  TcpTransport transport{2};
  transport.send(make_message(0, 1, 42));
  const auto received =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, make_message(0, 1, 42));
  EXPECT_EQ(transport.messages_sent(), 1u);
}

TEST(TcpTransport, RoundTripsEveryPayloadKind) {
  TcpTransport transport{2};
  const std::vector<Message> messages{
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierRequest{NodeId{0}, LockMode::kU, 7}},
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierGrant{LockMode::kR, LockMode::kR, 12}},
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierToken{LockMode::kW, LockMode::kIR,
                        {proto::QueuedRequest{NodeId{0}, LockMode::kR, 1}}}},
      {NodeId{0}, NodeId{1}, LockId{3}, proto::HierRelease{LockMode::kNL, 4}},
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierFreeze{proto::ModeSet::of({LockMode::kIR})}},
      {NodeId{0}, NodeId{1}, LockId{3}, proto::NaimiToken{}},
  };
  for (const Message& message : messages) transport.send(message);
  for (const Message& message : messages) {
    const auto received =
        transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(*received, message);
  }
}

TEST(TcpTransport, ChannelIsFifoUnderVolume) {
  TcpTransport transport{2};
  constexpr std::uint64_t kCount = 2000;
  std::thread sender([&transport] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      transport.send(make_message(0, 1, i));
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const auto received =
        transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
    ASSERT_TRUE(received.has_value());
    const auto* request = std::get_if<proto::NaimiRequest>(&received->payload);
    ASSERT_NE(request, nullptr);
    ASSERT_EQ(request->seq, i) << "TCP channel reordered frames";
  }
  sender.join();
}

TEST(TcpTransport, ConcurrentSendersToOneReceiver) {
  TcpTransport transport{4};
  constexpr int kPerSender = 300;
  std::vector<std::thread> senders;
  for (std::uint32_t s = 1; s < 4; ++s) {
    senders.emplace_back([&transport, s] {
      for (int i = 0; i < kPerSender; ++i) {
        transport.send(make_message(s, 0, static_cast<std::uint64_t>(i)));
      }
    });
  }
  int received = 0;
  while (received < 3 * kPerSender) {
    const auto message =
        transport.recv_for(NodeId{0}, std::chrono::milliseconds(5000));
    ASSERT_TRUE(message.has_value()) << "after " << received << " messages";
    ++received;
  }
  for (std::thread& t : senders) t.join();
}

TEST(TcpTransport, ShutdownUnblocksReceivers) {
  TcpTransport transport{2};
  std::thread receiver([&transport] {
    EXPECT_FALSE(transport.recv(NodeId{1}).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  transport.shutdown();
  receiver.join();
}

TEST(TcpTransport, RejectsUnknownDestination) {
  TcpTransport transport{2};
  EXPECT_THROW(transport.send(make_message(0, 7)), UsageError);
}

std::uint64_t seq_of(const Message& message) {
  const auto* request = std::get_if<proto::NaimiRequest>(&message.payload);
  return request == nullptr ? ~std::uint64_t{0} : request->seq;
}

/// A bare length prefix announcing `size` body bytes.
std::vector<std::byte> length_prefix(std::uint32_t size) {
  std::vector<std::byte> prefix(kFrameHeaderBytes);
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    prefix[i] = static_cast<std::byte>((size >> (8 * i)) & 0xFF);
  }
  return prefix;
}

/// The wire image of one single-message frame.
std::vector<std::byte> frame_of(const Message& message) {
  const std::vector<std::byte> body = proto::encode(message);
  std::vector<std::byte> frame =
      length_prefix(static_cast<std::uint32_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

void write_raw(int fd, std::span<const std::byte> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "raw write failed";
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
}

/// True once the transport has closed its end of `fd` (EOF or reset).
bool closed_by_peer(int fd) {
  pollfd watched{fd, POLLIN, 0};
  if (::poll(&watched, 1, 0) != 1) return false;
  std::byte byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
  return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
}

std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(TcpTransport, SendRecoversAfterChannelSevered) {
  TcpTransport transport{2};
  transport.send(make_message(0, 1, 1));
  const auto first =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(first.has_value());

  // Kill the established connection mid-run, behind the sender's back.
  ASSERT_TRUE(transport.sever_channel(NodeId{0}, NodeId{1}));
  transport.send(make_message(0, 1, 2));

  const auto second =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(second.has_value()) << "sender did not recover the channel";
  EXPECT_EQ(seq_of(*second), 2u);
  EXPECT_EQ(transport.messages_sent(), 2u);
  const auto counters = transport.counters().snapshot();
  EXPECT_GE(counters.send_retries, 1u);
  EXPECT_GE(counters.reconnects, 1u);
  EXPECT_EQ(counters.send_failures, 0u);
}

TEST(TcpTransport, SeverNeedsAnEstablishedChannel) {
  TcpTransport transport{2};
  EXPECT_FALSE(transport.sever_channel(NodeId{0}, NodeId{1}));
}

TEST(TcpTransport, ExhaustedRetriesDropTheFrameWithoutThrowing) {
  TcpOptions options;
  options.max_send_attempts = 2;
  options.initial_backoff = std::chrono::milliseconds(1);
  TcpTransport transport{2, options};
  // Repeatedly sever so every attempt (including post-reconnect writes)
  // fails; send must give up silently, never throw.
  for (int round = 0; round < 3; ++round) {
    transport.send(make_message(0, 1, static_cast<std::uint64_t>(round)));
    transport.sever_channel(NodeId{0}, NodeId{1});
  }
  // Drain whatever made it through; the transport itself must stay usable.
  while (transport.recv_for(NodeId{1}, std::chrono::milliseconds(200))
             .has_value()) {
  }
  transport.send(make_message(0, 1, 99));
  const auto last =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(seq_of(*last), 99u);
}

TEST(TcpTransport, MisaddressedFrameIsDiscardedConnectionSurvives) {
  TcpTransport transport{2};
  // Hand-roll a connection to node 0 and misaddress the first frame.
  const int fd = connect_loopback(transport.port_of(NodeId{0}));
  write_raw(fd, frame_of(make_message(1, 1, 7)));  // to node 1!
  write_raw(fd, frame_of(make_message(1, 0, 8)));  // correct
  const auto received =
      transport.recv_for(NodeId{0}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(received.has_value())
      << "reader dropped the connection on a bad frame";
  EXPECT_EQ(seq_of(*received), 8u);
  EXPECT_EQ(transport.counters().snapshot().misaddressed_frames, 1u);
  // The misaddressed frame never surfaced anywhere.
  EXPECT_FALSE(
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(50))
          .has_value());
  ::close(fd);
}

TEST(TcpTransport, FrameSplitAcrossWritesIsReassembled) {
  TcpTransport transport{2};
  const int fd = connect_loopback(transport.port_of(NodeId{0}));
  const std::vector<std::byte> first = frame_of(make_message(1, 0, 1));
  const std::vector<std::byte> second = frame_of(make_message(1, 0, 2));
  const std::span<const std::byte> a{first};
  const std::span<const std::byte> b{second};

  // Split inside the length prefix, then inside the body.
  write_raw(fd, a.first(2));
  EXPECT_FALSE(transport.recv_for(NodeId{0}, std::chrono::milliseconds(30))
                   .has_value());
  write_raw(fd, a.subspan(2));
  const auto got_first =
      transport.recv_for(NodeId{0}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(got_first.has_value());
  EXPECT_EQ(seq_of(*got_first), 1u);

  write_raw(fd, b.first(b.size() / 2));
  EXPECT_FALSE(transport.recv_for(NodeId{0}, std::chrono::milliseconds(30))
                   .has_value());
  write_raw(fd, b.subspan(b.size() / 2));
  const auto got_second =
      transport.recv_for(NodeId{0}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(got_second.has_value());
  EXPECT_EQ(seq_of(*got_second), 2u);
  ::close(fd);
}

TEST(TcpTransport, HundredFramesInOneWriteArriveInOrder) {
  TcpTransport transport{2};
  const int fd = connect_loopback(transport.port_of(NodeId{0}));
  std::vector<std::byte> burst;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::vector<std::byte> frame = frame_of(make_message(1, 0, i));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  write_raw(fd, burst);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto received =
        transport.recv_for(NodeId{0}, std::chrono::milliseconds(2000));
    ASSERT_TRUE(received.has_value()) << "frame " << i;
    EXPECT_EQ(seq_of(*received), i);
  }
  ::close(fd);
}

TEST(TcpTransport, BadFrameClosesOnlyItsOwnConnection) {
  enum class Fault { kZeroLength, kOversized, kEofMidFrame };
  for (const Fault fault :
       {Fault::kZeroLength, Fault::kOversized, Fault::kEofMidFrame}) {
    SCOPED_TRACE(static_cast<int>(fault));
    TcpTransport transport{2};
    const int bad = connect_loopback(transport.port_of(NodeId{0}));
    const int good = connect_loopback(transport.port_of(NodeId{0}));
    if (fault == Fault::kZeroLength) {
      write_raw(bad, length_prefix(0));
    } else if (fault == Fault::kOversized) {
      write_raw(bad, length_prefix(kMaxFrameBytes + 1));
    } else {
      const std::vector<std::byte> frame = frame_of(make_message(1, 0, 5));
      write_raw(bad, std::span<const std::byte>{frame}.first(frame.size() - 3));
      ::shutdown(bad, SHUT_WR);
    }
    write_raw(good, frame_of(make_message(1, 1, 7)));  // misaddressed
    write_raw(good, frame_of(make_message(1, 0, 8)));

    std::vector<std::uint64_t> seqs;
    bool closed = false;
    for (int round = 0; round < 200 && (seqs.empty() || !closed); ++round) {
      if (const auto message = transport.recv_for(
              NodeId{0}, std::chrono::milliseconds(10))) {
        seqs.push_back(seq_of(*message));
      }
      closed = closed || closed_by_peer(bad);
    }
    EXPECT_TRUE(closed) << "the corrupt connection stayed open";
    EXPECT_EQ(seqs, std::vector<std::uint64_t>{8})
        << "the healthy channel lost or gained messages";
    EXPECT_EQ(transport.counters().snapshot().misaddressed_frames, 1u);

    // The healthy channel keeps delivering after its neighbour died.
    write_raw(good, frame_of(make_message(1, 0, 9)));
    const auto after =
        transport.recv_for(NodeId{0}, std::chrono::milliseconds(2000));
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(seq_of(*after), 9u);
    ::close(bad);
    ::close(good);
  }
}

TEST(TcpTransport, ShutdownWakesRecvReadyOnIdleNode) {
  TcpTransport transport{2};
  std::thread receiver([&transport] {
    EXPECT_TRUE(transport.recv_ready(NodeId{1}).empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  transport.shutdown();
  receiver.join();
}

TEST(TcpTransport, TrafficOnEveryChannelStartsNoThreads) {
  const std::size_t before = thread_count();
  TcpTransport transport{4};
  for (std::uint32_t from = 0; from < 4; ++from) {
    for (std::uint32_t to = 0; to < 4; ++to) {
      if (from != to) transport.send(make_message(from, to, from));
    }
  }
  for (std::uint32_t node = 0; node < 4; ++node) {
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(transport.recv_for(NodeId{node},
                                     std::chrono::milliseconds(2000))
                      .has_value())
          << "node " << node << " message " << k;
    }
  }
  EXPECT_EQ(transport.messages_sent(), 12u);
  EXPECT_EQ(thread_count(), before);
}

TEST(TcpTransport, OversizedSameChannelBatchIsSplitUnderTheFrameCap) {
  TcpTransport transport{2};
  constexpr std::uint64_t kCount = 40'000;
  std::vector<Message> batch;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    batch.push_back(make_message(0, 1, i));
  }
  // The receiver drains concurrently: TCP flow control would otherwise
  // stall a multi-megabyte burst.
  std::thread sender(
      [&transport, &batch] { transport.send_batch(std::move(batch)); });
  std::vector<std::uint64_t> seqs;
  while (seqs.size() < kCount) {
    const auto message =
        transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
    if (!message) break;
    seqs.push_back(seq_of(*message));
  }
  sender.join();
  ASSERT_EQ(seqs.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(seqs[i], i);
  EXPECT_EQ(transport.messages_sent(), kCount);
  const auto counters = transport.counters().snapshot();
  EXPECT_EQ(counters.send_failures, 0u);
  EXPECT_EQ(counters.send_retries, 0u);
  EXPECT_EQ(counters.reconnects, 0u);
}

TEST(TcpTransport, MessageAboveTheFrameCapFailsAloneChannelSurvives) {
  TcpTransport transport{2};
  transport.send(make_message(0, 1, 1));
  ASSERT_TRUE(transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000))
                  .has_value());
  // 60k dead nodes plus 60k queued requests encode to more than 1 MiB.
  proto::EpochFence fence;
  fence.dead.assign(60'000, NodeId{1});
  fence.queue.assign(60'000, proto::QueuedRequest{NodeId{0}, LockMode::kR, 1});
  transport.send(Message{NodeId{0}, NodeId{1}, LockId{0}, fence});
  transport.send(make_message(0, 1, 2));
  const auto next =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(seq_of(*next), 2u);
  const auto counters = transport.counters().snapshot();
  EXPECT_EQ(counters.send_failures, 1u);
  EXPECT_EQ(counters.send_retries, 0u);
  EXPECT_EQ(counters.reconnects, 0u);
  EXPECT_EQ(transport.messages_sent(), 2u);
}

TEST(TcpTransport, InboxDepthCountsDecodedButUnreceivedMessages) {
  TcpTransport transport{2};
  std::vector<Message> batch;
  for (std::uint64_t i = 0; i < 5; ++i) batch.push_back(make_message(0, 1, i));
  transport.send_batch(batch);  // one batch frame
  const auto first =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(seq_of(*first), 0u);
  EXPECT_EQ(transport.inbox_depth(NodeId{1}), 4u);
  EXPECT_EQ(transport.inbox_depth(NodeId{0}), 0u);
  EXPECT_EQ(transport.recv_ready(NodeId{1}).size(), 4u);
  EXPECT_EQ(transport.inbox_depth(NodeId{1}), 0u);
}

TEST(TcpCluster, HierarchicalProtocolOverRealSockets) {
  runtime::ThreadClusterOptions options;
  options.node_count = 4;
  options.transport = runtime::TransportKind::kTcp;
  runtime::ThreadCluster cluster{options};

  long counter = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    workers.emplace_back([&cluster, &counter, i] {
      for (int k = 0; k < 20; ++k) {
        cluster.lock(NodeId{i}, LockId{0}, LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, LockId{0});
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, 80);
  EXPECT_GT(cluster.messages_sent(), 0u);
}

TEST(TcpCluster, SharedModesAndUpgradeOverRealSockets) {
  runtime::ThreadClusterOptions options;
  options.node_count = 3;
  options.transport = runtime::TransportKind::kTcp;
  runtime::ThreadCluster cluster{options};

  // Concurrent readers over sockets.
  std::thread r1([&] {
    cluster.lock(NodeId{1}, LockId{0}, LockMode::kIR);
    cluster.unlock(NodeId{1}, LockId{0});
  });
  std::thread r2([&] {
    cluster.lock(NodeId{2}, LockId{0}, LockMode::kIR);
    cluster.unlock(NodeId{2}, LockId{0});
  });
  r1.join();
  r2.join();

  // Rule 7 upgrade across the wire.
  cluster.lock(NodeId{1}, LockId{0}, LockMode::kU);
  cluster.upgrade(NodeId{1}, LockId{0});
  cluster.unlock(NodeId{1}, LockId{0});
}

}  // namespace
}  // namespace hlock::transport
