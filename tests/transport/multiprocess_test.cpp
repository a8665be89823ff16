// The protocol across REAL OS PROCESSES.
//
// The parent binds one loopback listener per node (so every port is known
// before any child exists), then forks one child per node. Each child
// adopts its listener, builds a TcpNode + HierEngine, and runs a small
// event loop: serve incoming protocol messages, perform K exclusive
// critical sections of its own, and keep serving until every process is
// done. Mutual exclusion is verified the only way that matters across
// processes: a non-atomic counter in a MAP_SHARED page. Any overlap of
// critical sections loses increments.
//
// Processes share no protocol state whatsoever — only sockets and the
// audited counter page.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <vector>

#include "runtime/engine.hpp"
#include "transport/tcp_node.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

constexpr std::size_t kProcesses = 4;
constexpr long kIncrementsPerProcess = 25;
const LockId kLock{0};

/// The audited cross-process state.
struct SharedPage {
  volatile long counter;
  volatile long done_processes;
};

/// One child process's whole life. Never returns; _exit()s with 0 on
/// success, 1 on any protocol error.
[[noreturn]] void child_main(std::uint32_t self_value, int listen_fd,
                             const std::vector<std::uint16_t>& ports,
                             SharedPage* shared) {
  const NodeId self{self_value};
  std::vector<TcpPeer> peers;
  for (std::uint32_t i = 0; i < ports.size(); ++i) {
    if (i != self_value) peers.push_back({NodeId{i}, ports[i]});
  }

  try {
    TcpNode transport{self, listen_fd, peers};
    runtime::HierEngine engine{self, NodeId{0}};

    bool in_cs = false;
    bool waiting = false;
    long completed = 0;

    auto apply = [&](core::Effects&& fx) {
      for (const proto::Message& message : fx.messages) {
        transport.send(message);
      }
      if (fx.entered_cs) {
        in_cs = true;
        waiting = false;
      }
    };

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      if (std::chrono::steady_clock::now() > deadline) _exit(1);

      if (in_cs) {
        // The audited critical section: a racy read-modify-write that
        // only stays correct under true mutual exclusion.
        const long snapshot = shared->counter;
        for (int spin = 0; spin < 500; ++spin) {
          __asm__ volatile("" ::: "memory");
        }
        shared->counter = snapshot + 1;
        apply(engine.release(kLock));
        in_cs = false;
        if (++completed == kIncrementsPerProcess) {
          __atomic_add_fetch(
              const_cast<long*>(&shared->done_processes), 1,
              __ATOMIC_SEQ_CST);
        }
      } else if (!waiting && completed < kIncrementsPerProcess) {
        waiting = true;
        apply(engine.request(kLock, LockMode::kW));
        continue;  // the request may have been self-granted synchronously
      }

      // Serve protocol traffic (also our only wait point).
      if (auto message =
              transport.recv_for(self, std::chrono::milliseconds(20))) {
        apply(engine.deliver(*message));
      } else if (completed >= kIncrementsPerProcess &&
                 __atomic_load_n(
                     const_cast<long*>(&shared->done_processes),
                     __ATOMIC_SEQ_CST) ==
                     static_cast<long>(kProcesses)) {
        // Everyone finished and the wire went quiet: safe to leave.
        break;
      }
    }
    _exit(0);
  } catch (...) {
    _exit(1);
  }
}

TEST(MultiProcess, MutualExclusionAcrossForkedProcesses) {
  // The shared, audited page.
  void* page = ::mmap(nullptr, sizeof(SharedPage), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* shared = new (page) SharedPage{0, 0};

  // Bind every listener in the parent so all ports are known pre-fork.
  std::vector<int> listeners;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kProcesses; ++i) {
    listeners.push_back(listen_loopback(0));
    ports.push_back(local_port(listeners.back()));
  }

  std::vector<pid_t> children;
  for (std::uint32_t i = 0; i < kProcesses; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: keep only our own listener.
      for (std::uint32_t k = 0; k < kProcesses; ++k) {
        if (k != i) ::close(listeners[k]);
      }
      child_main(i, listeners[i], ports, shared);  // never returns
    }
    children.push_back(pid);
  }
  // Parent: the children own the listeners now.
  for (int fd : listeners) ::close(fd);

  bool all_ok = true;
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    all_ok &= WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  EXPECT_TRUE(all_ok) << "a child process failed or timed out";
  EXPECT_EQ(shared->counter,
            static_cast<long>(kProcesses) * kIncrementsPerProcess)
      << "lost increments: mutual exclusion was violated across processes";
  ::munmap(page, sizeof(SharedPage));
}

TEST(TcpNode, PairwiseMessagingWithinOneProcess) {
  // Two endpoints, no shared state beyond the port table.
  TcpNode a{NodeId{0}};
  TcpNode b{NodeId{1}};
  a.add_peer({NodeId{1}, b.port()});
  b.add_peer({NodeId{0}, a.port()});

  a.send(proto::Message{NodeId{0}, NodeId{1}, kLock,
                        proto::NaimiRequest{NodeId{0}, 1}});
  const auto at_b = b.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(at_b.has_value());
  b.send(proto::Message{NodeId{1}, NodeId{0}, kLock, proto::NaimiToken{}});
  const auto at_a = a.recv_for(NodeId{0}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(at_a.has_value());
  EXPECT_TRUE(
      std::holds_alternative<proto::NaimiToken>(at_a->payload));
}

TEST(TcpNode, SurvivesSeveredChannelThroughReconnect) {
  TcpNode a{NodeId{0}};
  TcpNode b{NodeId{1}};
  a.add_peer({NodeId{1}, b.port()});
  const auto naimi_request = [](std::uint64_t seq) {
    return proto::Message{NodeId{0}, NodeId{1}, kLock,
                          proto::NaimiRequest{NodeId{0}, seq}};
  };
  a.send(naimi_request(1));
  ASSERT_TRUE(b.recv_for(NodeId{1}, std::chrono::milliseconds(2000))
                  .has_value());

  ASSERT_TRUE(a.sever_channel(NodeId{1}));
  a.send(naimi_request(2));
  const auto second = b.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(second.has_value()) << "sender did not recover the channel";
  EXPECT_EQ(std::get<proto::NaimiRequest>(second->payload).seq, 2u);
  EXPECT_EQ(a.messages_sent(), 2u);
  const auto counters = a.counters().snapshot();
  EXPECT_GE(counters.send_retries, 1u);
  EXPECT_GE(counters.reconnects, 1u);
  EXPECT_EQ(counters.send_failures, 0u);
}

TEST(TcpNode, BatchFrameAndInboxDepth) {
  TcpNode a{NodeId{0}};
  TcpNode b{NodeId{1}};
  a.add_peer({NodeId{1}, b.port()});
  std::vector<proto::Message> batch;
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    batch.push_back(proto::Message{NodeId{0}, NodeId{1}, kLock,
                                   proto::NaimiRequest{NodeId{0}, seq}});
  }
  a.send_batch(batch);
  const auto first = b.recv_for(NodeId{1}, std::chrono::milliseconds(2000));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(b.inbox_depth(NodeId{1}), 2u) << "the rest of the batch frame";
  const std::vector<proto::Message> rest = b.recv_ready(NodeId{1});
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[1], batch[2]);
  EXPECT_EQ(b.inbox_depth(NodeId{1}), 0u);
  EXPECT_EQ(a.messages_sent(), 3u);
}

TEST(TcpNode, Contracts) {
  TcpNode node{NodeId{3}};
  EXPECT_THROW(node.recv_for(NodeId{1}, std::chrono::milliseconds(1)),
               UsageError);
  EXPECT_THROW(node.send(proto::Message{NodeId{1}, NodeId{3}, kLock,
                                        proto::NaimiToken{}}),
               UsageError)
      << "sending another node's message";
  EXPECT_THROW(node.send(proto::Message{NodeId{3}, NodeId{9}, kLock,
                                        proto::NaimiToken{}}),
               UsageError)
      << "unknown peer";
  EXPECT_THROW(node.add_peer({NodeId{3}, 1}), UsageError) << "self peer";
  EXPECT_GT(node.port(), 0);
}

}  // namespace
}  // namespace hlock::transport
