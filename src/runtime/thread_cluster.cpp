#include "runtime/thread_cluster.hpp"

#include "runtime/instrumented_engine.hpp"
#include "telemetry/exports.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::runtime {

namespace {

std::unique_ptr<LockEngine> make_shard_engine(
    const ThreadClusterOptions& options, NodeId self) {
  std::unique_ptr<LockEngine> engine =
      make_engine(options.protocol, self, options.node_count,
                  options.initial_root, options.hier_config,
                  options.recovery.enabled);
  if (options.metrics != nullptr) {
    engine = std::make_unique<InstrumentedEngine>(
        std::move(engine), *options.metrics, options.protocol, self);
  }
  return engine;
}

/// Brackets a blocking call with the stall watchdog and ends the bracket on
/// every exit path — a call that throws (crash-stopped node, engine usage
/// error) must not leave a pending entry the watchdog later flags.
class StallBracket {
 public:
  template <typename Label>
  StallBracket(telemetry::StallWatchdog* watchdog, const Label& label)
      : watchdog_(watchdog) {
    if (watchdog_ != nullptr) key_ = watchdog_->begin(label());
  }
  ~StallBracket() {
    if (watchdog_ != nullptr) watchdog_->end(key_);
  }
  StallBracket(const StallBracket&) = delete;
  StallBracket& operator=(const StallBracket&) = delete;

 private:
  telemetry::StallWatchdog* watchdog_;
  std::uint64_t key_ = 0;
};

}  // namespace

ThreadCluster::Shard::Shard(ThreadCluster& owner,
                            const ThreadClusterOptions& options, NodeId self,
                            obs::AtomicLamportClock& clock)
    : cluster(owner),
      core(self, options.node_count, make_shard_engine(options, self),
           options.recovery, clock, *this) {}

ThreadCluster::ThreadCluster(const ThreadClusterOptions& options)
    : metrics_(options.metrics), watchdog_(options.watchdog),
      recovery_(options.recovery) {
  if (options.transport == TransportKind::kTcp) {
    transport::TcpOptions tcp_options;
    tcp_options.batching = options.batching;
    auto tcp = std::make_unique<transport::TcpTransport>(options.node_count,
                                                         tcp_options);
    tcp_ = tcp.get();
    transport_ = std::move(tcp);
  } else {
    auto inproc = std::make_unique<transport::InProcTransport>(
        transport::InProcOptions{options.node_count, options.message_latency,
                                 options.seed, options.codec_roundtrip,
                                 options.batching});
    inproc_ = inproc.get();
    transport_ = std::move(inproc);
  }
  if (options.faults.any()) {
    transport::FaultPlan plan = options.faults;
    if (plan.seed == 0) plan.seed = options.seed;
    auto faulty = std::make_unique<transport::FaultyTransport>(
        std::move(transport_), plan);
    faulty_ = faulty.get();
    transport_ = std::move(faulty);
  }
  HLOCK_REQUIRE(options.node_count >= 1, "a cluster needs at least one node");
  HLOCK_REQUIRE(options.initial_root.value() < options.node_count,
                "the initial root must be one of the cluster's nodes");
  HLOCK_REQUIRE(!(options.recovery.enabled && options.engine_shards > 1),
                "crash recovery requires engine_shards <= 1: the manager "
                "reports over the node's whole lock space");
  shard_count_ = options.engine_shards == 0 ? kDefaultEngineShards
                                            : options.engine_shards;
  if (options.recovery.enabled) shard_count_ = 1;
  if (metrics_ != nullptr) register_transport_metrics(options.node_count);
  nodes_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    const NodeId self{static_cast<std::uint32_t>(i)};
    auto rt = std::make_unique<NodeRuntime>();
    if (metrics_ != nullptr) {
      rt->recv_batch = &metrics_->histogram(
          telemetry::labeled("hlock_recv_batch_size",
                             {{"node", std::to_string(i)}}),
          telemetry::linear_bounds(1.0, 1.0, 16));
      rt->inline_batches = &metrics_->counter(telemetry::labeled(
          "hlock_inline_batches_total", {{"node", std::to_string(i)}}));
    }
    rt->shards.reserve(shard_count_);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      auto shard = std::make_unique<Shard>(*this, options, self, rt->clock);
      if (metrics_ != nullptr) {
        shard->queue_depth = &metrics_->gauge(telemetry::labeled(
            "hlock_engine_queue_depth",
            {{"node", std::to_string(i)}, {"shard", std::to_string(s)}}));
        shard->tokens_held = &metrics_->gauge(telemetry::labeled(
            "hlock_tokens_held",
            {{"node", std::to_string(i)}, {"shard", std::to_string(s)}}));
      }
      rt->shards.push_back(std::move(shard));
    }
    if (options.recovery.enabled && metrics_ != nullptr) {
      const auto name = [&](std::string_view base) {
        return telemetry::labeled(base, {{"node", std::to_string(i)}});
      };
      rt->epoch_gauge = &metrics_->gauge(name("hlock_epoch"));
      rt->suspicions = &metrics_->counter(name("hlock_suspicions_total"));
      rt->fences = &metrics_->counter(name("hlock_fences_total"));
      rt->recoveries = &metrics_->counter(name("hlock_recoveries_total"));
      rt->stale_drops_metric =
          &metrics_->counter(name("hlock_stale_drops_total"));
      rt->recovery_ms = &metrics_->histogram(name("hlock_recovery_ms"));
    }
    nodes_.push_back(std::move(rt));
  }
  for (std::size_t i = 0; i < options.node_count; ++i) {
    const NodeId self{static_cast<std::uint32_t>(i)};
    const std::string name = "recv-" + std::to_string(i);
    nodes_[i]->receiver =
        sched::Thread(name.c_str(), [this, self] { receiver_loop(self); });
  }
  if (options.recovery.enabled) {
    ticker_ = sched::Thread("recovery-ticker", [this] { ticker_loop(); });
  }
}

void ThreadCluster::register_transport_metrics(std::size_t node_count) {
  transport::Transport* transport = transport_.get();
  metrics_->register_counter_fn(
      "hlock_transport_messages_sent_total",
      [transport] { return transport->messages_sent(); });
  metrics_->register_counter_fn("hlock_transport_bytes_sent_total",
                                [transport] {
                                  return transport->bytes_sent();
                                });
  // Fault/retry counter structs fold in via their X-macro field tables.
  // With both decorator and TCP present the TCP retry counters get their
  // own prefix so the two field sets cannot collide.
  if (faulty_ != nullptr) {
    telemetry::export_transport_counters(*metrics_, faulty_->counters(),
                                         "hlock_transport_");
    if (tcp_ != nullptr) {
      telemetry::export_transport_counters(*metrics_, tcp_->counters(),
                                           "hlock_tcp_transport_");
    }
  } else if (tcp_ != nullptr) {
    telemetry::export_transport_counters(*metrics_, tcp_->counters(),
                                         "hlock_transport_");
  }
  // Mailbox depth per node. Safe as a snapshot-time callback: the mailbox
  // mutex is a leaf — nothing acquired under it — so registry -> mailbox
  // cannot complete a cycle (unlike shard mutexes; see Shard).
  for (std::size_t i = 0; i < node_count; ++i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    metrics_->register_gauge_fn(
        telemetry::labeled("hlock_mailbox_depth",
                           {{"node", std::to_string(i)}}),
        [transport, node] {
          return static_cast<double>(transport->inbox_depth(node));
        });
  }
}

ThreadCluster::~ThreadCluster() {
  // The callback series read transport_ — stop the polling before the
  // teardown so a concurrent sampler snapshot never touches a dying
  // transport.
  if (metrics_ != nullptr) {
    metrics_->unregister_callbacks("hlock_transport_");
    metrics_->unregister_callbacks("hlock_tcp_transport_");
    metrics_->unregister_callbacks("hlock_mailbox_depth");
  }
  stopping_.store(true);
  // Notify while holding each shard's mutex: a client thread that already
  // checked its predicate but has not entered the wait yet would otherwise
  // miss the wake-up and block forever (and the unsynchronized flag write
  // would race with the predicate read).
  for (auto& rt : nodes_) {
    for (auto& shard : rt->shards) {
      MutexLock guard(shard->mutex);
      shard->cv.notify_all();
    }
  }
  // Stop the recovery ticker before the transport dies under its sends.
  if (ticker_.joinable()) {
    {
      MutexLock guard(ticker_mutex_);
      ticker_cv_.notify_all();
    }
    ticker_.join();
  }
  transport_->shutdown();
  for (auto& rt : nodes_) {
    if (rt->receiver.joinable()) rt->receiver.join();
  }
  // Wait until every woken client call has left its wait; destroying the
  // node state under a thread still inside lock()/upgrade() would be a
  // use-after-free.
  for (auto& rt : nodes_) {
    for (auto& shard : rt->shards) {
      MutexLock guard(shard->mutex);
      while (shard->waiters != 0) shard->cv.wait(shard->mutex);
    }
  }
}

void ThreadCluster::set_event_sink(EventSink sink) {
  // Under event_mutex_: receivers read the sink while applying effects, so
  // an unguarded write here would race with every in-flight event (a real
  // defect the capability analysis flagged when the slot was annotated).
  MutexLock guard(event_mutex_);
  event_sink_ = std::move(sink);
}

ThreadCluster::NodeRuntime& ThreadCluster::runtime_of(NodeId node) {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return *nodes_[node.value()];
}

void ThreadCluster::receiver_loop(NodeId node) {
  NodeRuntime& rt = runtime_of(node);
  // A receiver opens no InlineScope: it serves its own node only. Drafting
  // it into another node's drain would leave its own mailbox claimed and
  // unserved meanwhile (airline-local's acquire_p50_us rose ~10% when it
  // did).
  for (;;) {
    // One transport call drains every matured message (one mailbox lock
    // acquisition for the whole burst); an empty batch means shutdown.
    std::vector<proto::Message> batch = transport_->recv_ready(node);
    if (batch.empty()) return;
    // Crash-stop: the receiver discards the batch unread and exits — the
    // node consumes nothing ever again (docs/recovery.md).
    if (!rt.alive.load(std::memory_order_acquire)) return;
    if (rt.recv_batch != nullptr) {
      rt.recv_batch->record(static_cast<double>(batch.size()));
    }
    // Explicit schedule point: under the explorer a client thread may slip
    // in between the drain and the dispatch (shutdown/close races live
    // exactly there).
    sched::yield_point("thread_cluster.recv-batch");
    if (!dispatch_batch(rt, node, batch)) return;
  }
}

bool ThreadCluster::dispatch_batch(NodeRuntime& rt, NodeId node,
                                   std::vector<proto::Message>& batch) {
  // Dispatch consecutive same-shard runs under one shard lock
  // acquisition, moving each message straight into delivery — batches
  // never cross shards out of order, preserving per-channel FIFO.
  std::size_t i = 0;
  while (i < batch.size()) {
    Shard& shard = shard_of(rt, batch[i].lock);
    MutexLock guard(shard.mutex);
    do {
      // A crash-stopped node discards the batch unread; one taken
      // mid-batch stops dispatching immediately so the crashed node cannot
      // keep replying (and emitting old-epoch traffic).
      if (!rt.alive.load(std::memory_order_acquire)) return false;
      proto::Message& message = batch[i];
      // An exception escaping a std::thread calls std::terminate, so
      // failures become a counted, logged error and the drain goes on.
      try {
        shard.core.receive(message);
        publish(rt, shard);
      } catch (const std::exception& error) {
        receiver_errors_.fetch_add(1, std::memory_order_relaxed);
        HLOCK_LOG(kError, "node " << node.value()
                                  << ": error applying message: "
                                  << error.what());
      }
      ++i;
    } while (i < batch.size() && &shard_of(rt, batch[i].lock) == &shard);
  }
  return true;
}

void ThreadCluster::drain_inline(
    transport::InProcTransport::InlineScope& scope) {
  scope.drain([this](NodeId node, std::vector<proto::Message>& batch) {
    NodeRuntime& rt = *nodes_[node.value()];
    if (rt.recv_batch != nullptr && rt.alive.load(std::memory_order_acquire)) {
      rt.recv_batch->record(static_cast<double>(batch.size()));
      rt.inline_batches->inc();
    }
    dispatch_batch(rt, node, batch);
  });
}

SimTime ThreadCluster::wall_now() const {
  const auto elapsed = std::chrono::steady_clock::now() - started_;
  return SimTime::ns(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

void ThreadCluster::ticker_loop() {
  const auto interval =
      std::chrono::nanoseconds(recovery_.heartbeat_interval.count_ns());
  for (;;) {
    {
      MutexLock guard(ticker_mutex_);
      if (stopping_.load()) return;
      ticker_cv_.wait_for(ticker_mutex_, interval);
    }
    if (stopping_.load()) return;
    for (auto& rt_ptr : nodes_) {
      NodeRuntime& rt = *rt_ptr;
      if (!rt.alive.load(std::memory_order_acquire)) continue;
      Shard& shard = *rt.shards[0];
      MutexLock guard(shard.mutex);
      shard.core.tick();
      publish(rt, shard);
    }
  }
}

void ThreadCluster::publish(NodeRuntime& rt, Shard& shard) {
  // Value gauges refreshed under the shard mutex we already hold rather
  // than snapshot callbacks, keeping the registry mutex out of the
  // shard-lock order (see Shard).
  if (shard.queue_depth != nullptr) {
    shard.queue_depth->set(
        static_cast<double>(shard.core.engine().queued_requests()));
    shard.tokens_held->set(
        static_cast<double>(shard.core.engine().tokens_held()));
  }
  if (rt.epoch_gauge == nullptr) return;
  const recovery::Manager& manager = *shard.core.manager();
  const recovery::RecoveryCounters& counters = manager.counters();
  rt.epoch_gauge->set(static_cast<double>(manager.current_epoch()));
  rt.suspicions->inc(counters.suspicions - rt.published.suspicions);
  rt.fences->inc(counters.fences_installed - rt.published.fences_installed);
  rt.recoveries->inc(counters.recoveries - rt.published.recoveries);
  rt.stale_drops_metric->inc(counters.stale_drops -
                             rt.published.stale_drops);
  rt.published = counters;
  const std::vector<double>& samples = manager.recovery_durations_ms();
  for (; rt.published_samples < samples.size(); ++rt.published_samples) {
    rt.recovery_ms->record(samples[rt.published_samples]);
  }
}

void ThreadCluster::crash_stop(NodeId node) {
  HLOCK_REQUIRE(recovery_.enabled,
                "crash_stop() requires recovery to be enabled — without it "
                "the survivors could never regenerate the token");
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = *rt.shards[0];
  MutexLock guard(shard.mutex);
  rt.alive.store(false, std::memory_order_release);
  // A crash-stop loses all volatile state; wake any of the node's blocked
  // client calls (they observe !alive and return).
  shard.core.crash();
  shard.cv.notify_all();
}

bool ThreadCluster::alive(NodeId node) const {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return nodes_[node.value()]->alive.load(std::memory_order_acquire);
}

std::uint32_t ThreadCluster::recovery_epoch_of(NodeId node) {
  HLOCK_REQUIRE(recovery_.enabled, "recovery is not enabled on this cluster");
  Shard& shard = *runtime_of(node).shards[0];
  MutexLock guard(shard.mutex);
  return shard.core.manager()->current_epoch();
}

recovery::RecoveryCounters ThreadCluster::recovery_counters(NodeId node) {
  HLOCK_REQUIRE(recovery_.enabled, "recovery is not enabled on this cluster");
  Shard& shard = *runtime_of(node).shards[0];
  MutexLock guard(shard.mutex);
  return shard.core.manager()->counters();
}

std::uint64_t ThreadCluster::stale_drops(NodeId node) {
  return recovery_counters(node).stale_drops;
}

void ThreadCluster::Shard::sink(std::vector<trace::TraceEvent>& events) {
  // The sink slot is only readable under event_mutex_ — checking it
  // unguarded raced with set_event_sink().
  MutexLock sink_guard(cluster.event_mutex_);
  if (!cluster.event_sink_) return;
  for (trace::TraceEvent& event : events) {
    cluster.event_sink_(std::move(event));
  }
}

void ThreadCluster::Shard::send(std::vector<proto::Message>& messages) {
  // One transport call for the whole step: the transport coalesces
  // same-destination runs into batch frames (when batching is on) and
  // falls back to per-message sends otherwise.
  cluster.transport_->send_batch(std::move(messages));
}

void ThreadCluster::Shard::grant(LockId lock, bool upgrade) {
  (upgrade ? upgraded : granted).insert(lock);
  cv.notify_all();
}

template <typename Label, typename Step>
void ThreadCluster::run_blocking(NodeId node, LockId lock, const Label& label,
                                 std::unordered_set<LockId> Shard::*done,
                                 const Step& step) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  // Watchdog bracket around the whole blocking wait. begin() before the
  // shard mutex (it takes the watchdog's own); end() after it.
  const StallBracket stall(watchdog_, label);
  sched::yield_point("thread_cluster.lock");
  // Counted before the request step, so an answer racing the step already
  // sees this node as waiting and may be delivered inline.
  transport::InProcTransport::WaitingClient waiting(inproc_, node, lock);
  transport::InProcTransport::InlineScope inline_scope(inproc_);
  {
    MutexLock guard(shard.mutex);
    HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                  "node has crash-stopped");
    if (stopping_) {
      waiting.end();  // under the mutex: teardown may free the transport
      return;
    }
    // A halted node's core buffers the step until the unhalt; the wait
    // below then simply lasts through the recovery.
    step(shard.core);
    publish(rt, shard);
    // From here the destructor waits for this call, across the split too.
    ++shard.waiters;
    // Nothing claimed (local grant, TCP): one critical section, as before.
    if (!inline_scope.claimed()) {
      finish_wait(rt, shard, shard.*done, lock, waiting);
      return;
    }
  }
  // The step claimed mailboxes: run their protocol steps on this thread,
  // outside our shard mutex, then wait (usually the grant is already in).
  drain_inline(inline_scope);
  MutexLock guard(shard.mutex);
  finish_wait(rt, shard, shard.*done, lock, waiting);
}

void ThreadCluster::finish_wait(
    NodeRuntime& rt, Shard& shard, std::unordered_set<LockId>& done,
    LockId lock, transport::InProcTransport::WaitingClient& waiting) {
  while (!stopping_ && rt.alive.load(std::memory_order_acquire) &&
         done.count(lock) == 0) {
    shard.cv.wait(shard.mutex);
  }
  done.erase(lock);
  waiting.end();
  --shard.waiters;
  shard.cv.notify_all();  // a tearing-down destructor may drain waiters
}

void ThreadCluster::lock(NodeId node, LockId lock, LockMode mode,
                         std::uint8_t priority) {
  run_blocking(
      node, lock,
      [&] {
        return "node=" + std::to_string(node.value()) +
               " lock=" + std::to_string(lock.value()) +
               " mode=" + proto::to_string(mode);
      },
      &Shard::granted,
      [&](NodeCore& core) { core.request(lock, mode, priority); });
}

void ThreadCluster::unlock(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  transport::InProcTransport::InlineScope inline_scope(inproc_);
  {
    MutexLock guard(shard.mutex);
    HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                  "node has crash-stopped");
    if (stopping_) return;
    shard.core.release(lock);
    publish(rt, shard);
  }
  // A grant or token handed to a waiting node is delivered right here.
  drain_inline(inline_scope);
}

void ThreadCluster::upgrade(NodeId node, LockId lock) {
  run_blocking(
      node, lock,
      [&] {
        return "node=" + std::to_string(node.value()) +
               " lock=" + std::to_string(lock.value()) + " upgrade";
      },
      &Shard::upgraded,
      [&](NodeCore& core) { core.upgrade(lock); });
}

bool ThreadCluster::holds(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  return shard.core.engine().holds(lock);
}

}  // namespace hlock::runtime
