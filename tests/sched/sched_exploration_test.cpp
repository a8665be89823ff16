// The existing concurrency stress scenarios, re-run as *explored
// schedules*: each test body executes under the deterministic schedule
// explorer across a batch of seeds (tests/sched/sched_test.hpp), so the
// shutdown / close / reconnect races the stress suites only sometimes hit
// are walked systematically — and any interleaving that deadlocks or
// fails prints its replay seed. See docs/sched.md.
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/thread_cluster.hpp"
#include "tests/sched/sched_test.hpp"
#include "trace/recorder.hpp"
#include "transport/faulty_transport.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/mailbox.hpp"
#include "transport/tcp_transport.hpp"
#include "util/check.hpp"
#include "util/sync_observer.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;

Message make_message(std::uint32_t from, std::uint32_t to,
                     std::uint64_t seq) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::NaimiRequest{NodeId{from}, seq}};
}

TEST(SchedExploration, ThreadClusterLockUnlockAndShutdown) {
  sched_test::ExploreOptions options;
  options.seeds = 8;  // a live cluster is the heaviest body in this suite
  sched_test::explore(
      [] {
        runtime::ThreadClusterOptions cluster_options;
        cluster_options.node_count = 2;
        cluster_options.engine_shards = 2;
        runtime::ThreadCluster cluster{cluster_options};
        sched::Thread client("client", [&cluster] {
          for (int i = 0; i < 2; ++i) {
            cluster.lock(NodeId{1}, LockId{7}, LockMode::kW);
            cluster.unlock(NodeId{1}, LockId{7});
          }
        });
        cluster.lock(NodeId{0}, LockId{7}, LockMode::kW);
        cluster.unlock(NodeId{0}, LockId{7});
        client.join();
        // Destruction races the receivers draining their mailboxes — the
        // shutdown handshake the stress suite hammers nondeterministically.
      },
      options);
}

TEST(SchedExploration, MailboxPopUntilRacesPushAndClose) {
  sched_test::explore([] {
    transport::Mailbox mailbox;
    std::optional<Message> popped;
    sched::Thread consumer("consumer", [&mailbox, &popped] {
      popped = mailbox.pop_until(transport::Mailbox::Clock::now() +
                                 std::chrono::milliseconds(250));
    });
    mailbox.push(make_message(0, 1, 1), transport::Mailbox::Clock::now());
    sched::yield_point("test.before-close");
    mailbox.close();
    consumer.join();
    // Whatever the interleaving, the consumer must come back; it may see
    // the message or the close, but a pushed-before-close message that it
    // kept waiting past is a lost wakeup.
    if (popped.has_value()) {
      EXPECT_EQ(std::get<proto::NaimiRequest>(popped->payload).seq, 1u);
    }
  });
}

TEST(SchedExploration, MailboxCloseWakesBlockedPop) {
  sched_test::explore([] {
    transport::Mailbox mailbox;
    sched::Thread consumer("consumer", [&mailbox] {
      // Untimed pop: only the close can unblock it. A schedule where the
      // close's notify is lost deadlocks here — and the explorer proves it.
      EXPECT_FALSE(mailbox.pop().has_value());
    });
    mailbox.close();
    consumer.join();
  });
}

TEST(SchedExploration, TraceRecorderConcurrentRecordAndSnapshot) {
  sched_test::explore([] {
    trace::TraceRecorder recorder{64};
    sched::Thread writer("writer", [&recorder] {
      for (int i = 0; i < 4; ++i) {
        recorder.record_enter_cs(SimTime::ms(i), NodeId{1});
        recorder.record_exit_cs(SimTime::ms(i), NodeId{1});
      }
    });
    for (int i = 0; i < 4; ++i) {
      recorder.note(SimTime::ms(i), NodeId{0}, "snapshot-race");
      (void)recorder.events();
    }
    writer.join();
    EXPECT_EQ(recorder.events().size(), 12u);
  });
}

TEST(SchedExploration, FaultyTransportPumpRacesSendAndShutdown) {
  sched_test::ExploreOptions options;
  options.seeds = 8;
  sched_test::explore(
      [] {
        transport::FaultPlan plan;
        plan.seed = 7;
        plan.delay_probability = 0.5;  // force traffic through the pump wire
        plan.delay = DurationDist::constant(SimTime::us(50));
        transport::FaultyTransport transport{
            std::make_unique<transport::InProcTransport>(
                transport::InProcOptions{2}),
            plan};
        sched::Thread sender("sender", [&transport] {
          for (std::uint64_t seq = 0; seq < 3; ++seq) {
            transport.send(make_message(0, 1, seq));
          }
        });
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          const auto received =
              transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
          ASSERT_TRUE(received.has_value()) << "message " << seq;
          EXPECT_EQ(std::get<proto::NaimiRequest>(received->payload).seq,
                    seq);
        }
        sender.join();
        // Destructor shutdown races the pump thread's forwarding loop.
      },
      options);
}

TEST(SchedExploration, TcpReconnectAfterSeveredChannel) {
  // Real sockets keep their own kernel-side timing, so TCP schedules are
  // explored best-effort: the scheduler still controls every thread at its
  // sync points, but replay identity is not guaranteed (docs/sched.md).
  sched_test::ExploreOptions options;
  options.seeds = 4;
  sched_test::explore(
      [] {
        transport::TcpTransport transport{2};
        transport.send(make_message(0, 1, 1));
        const auto first =
            transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
        ASSERT_TRUE(first.has_value());
        ASSERT_TRUE(transport.sever_channel(NodeId{0}, NodeId{1}));
        sched::Thread sender("sender", [&transport] {
          transport.send(make_message(0, 1, 2));
        });
        const auto second =
            transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
        ASSERT_TRUE(second.has_value()) << "send did not recover";
        EXPECT_EQ(std::get<proto::NaimiRequest>(second->payload).seq, 2u);
        sender.join();
      },
      options);
}

TEST(SchedExploration, TcpShutdownWakesReceiverParkedInPoll) {
  // The receiver polls its node's sockets itself; shutdown() must wake it
  // whether it is already parked in epoll_wait, about to park, or not yet
  // polling at all.
  sched_test::ExploreOptions options;
  options.seeds = 8;
  sched_test::explore(
      [] {
        transport::TcpTransport transport{2};
        sched::Thread receiver("receiver", [&transport] {
          EXPECT_TRUE(transport.recv_ready(NodeId{1}).empty());
        });
        transport.shutdown();
        receiver.join();
      },
      options);
}

TEST(SchedExploration, ClaimReleaseRacesReceiverParking) {
  // A helper claims, drains and releases while a producer's push races the
  // release and the receiver parks. The producer's message must reach the
  // helper or the receiver without any later push or close: had it slipped
  // unannounced between the helper's "nothing due" and its release, the
  // receiver would stay parked and the main thread would wait for it
  // forever — a deadlock the explorer proves.
  sched_test::ExploreOptions options;
  options.seeds = 48;
  sched_test::explore(
      [] {
        transport::Mailbox mailbox;
        Mutex mu{"test.received"};
        CondVar cv;
        std::size_t received = 0;
        sched::Thread receiver("receiver", [&] {
          for (;;) {
            const std::vector<Message> batch = mailbox.pop_all_ready();
            if (batch.empty()) return;
            {
              MutexLock guard(mu);
              received += batch.size();
            }
            cv.notify_all();
          }
        });
        sched::Thread producer("producer", [&mailbox] {
          mailbox.push(make_message(0, 1, 1),
                       transport::Mailbox::Clock::now());
        });
        std::size_t taken = 0;
        if (mailbox.push(make_message(2, 1, 2),
                         transport::Mailbox::Clock::now(), true)) {
          for (auto batch = mailbox.take_claimed(); !batch.empty();
               batch = mailbox.take_claimed()) {
            taken += batch.size();
          }
        }
        producer.join();
        {
          MutexLock guard(mu);
          while (taken + received < 2) cv.wait(mu);
        }
        mailbox.close();
        receiver.join();
        EXPECT_EQ(taken + received, 2u);
      },
      options);
}

TEST(SchedExploration, CrashStopRacesInlineDrain) {
  // Node 1's unlock hands the token to node 0's waiting client — inline,
  // on the unlocking thread, when the request is already queued at node 1;
  // through the receivers when it is still in flight — while node 0
  // crash-stops. Whichever order the explorer picks, once crash_stop()
  // returns node 0 takes no protocol step, and every call comes back.
  sched_test::ExploreOptions options;
  options.seeds = 8;
  sched_test::explore(
      [] {
        runtime::ThreadClusterOptions cluster_options;
        cluster_options.node_count = 2;
        cluster_options.hier_config.trace_events = true;
        cluster_options.recovery.enabled = true;
        cluster_options.recovery.heartbeat_interval = SimTime::ms(50);
        cluster_options.recovery.suspect_after = SimTime::ms(60'000);
        runtime::ThreadCluster cluster{cluster_options};
        std::atomic<bool> crashed{false};
        std::atomic<int> steps_after_crash{0};
        cluster.set_event_sink(
            [&crashed, &steps_after_crash](trace::TraceEvent event) {
              if (crashed.load() && event.node == NodeId{0}) {
                ++steps_after_crash;
              }
            });
        cluster.lock(NodeId{1}, LockId{3}, LockMode::kW);
        sched::Thread waiter("waiter", [&cluster] {
          try {
            cluster.lock(NodeId{0}, LockId{3}, LockMode::kW);
          } catch (const UsageError&) {
            // crash_stop() ran before the call began
          }
        });
        sched::Thread helper("helper", [&cluster] {
          cluster.unlock(NodeId{1}, LockId{3});
        });
        sched::yield_point("test.before-crash");
        cluster.crash_stop(NodeId{0});
        crashed = true;
        helper.join();
        waiter.join();
        EXPECT_EQ(steps_after_crash.load(), 0);
        EXPECT_EQ(cluster.receiver_errors(), 0u);
      },
      options);
}

}  // namespace
}  // namespace hlock
