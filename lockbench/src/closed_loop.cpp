#include "closed_loop.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "lint/spec_tables.hpp"
#include "probes.hpp"
#include "telemetry/registry.hpp"

namespace lockbench {

namespace {

using hlock::runtime::ThreadCluster;

/// An op slower than this counts as failed (a latency limit, not a hang).
constexpr std::int64_t kSoftDeadlineNs = 1'000'000'000;
/// An op in flight longer than this is a wedge: the run reports it and
/// exits nonzero instead of hanging.
constexpr std::int64_t kHardDeadlineNs = 10'000'000'000;
/// Ops whose spans are kept in memory, per client and round (every call is
/// timed regardless).
constexpr std::size_t kSpanOpsPerClient = 5'000;
/// Upgrade calls timed by the probe on workloads without upgrades.
constexpr int kUpgradeProbeCalls = 200;
/// Idle period over which recovery runs measure heartbeat-only traffic.
constexpr std::int64_t kIdleProbeNs = 300'000'000;

enum Phase : int { kWait = 0, kWarmup = 1, kMeasure = 2, kStop = 3 };

/// Client-side view of who holds what: a grant is recorded after lock()
/// returns and erased before unlock() is called, so the recorded interval
/// lies inside the real hold and any overlap seen here is a real one.
class HolderTable {
 public:
  explicit HolderTable(std::size_t locks)
      : entries_(std::make_unique<Entry[]>(locks)) {}

  /// Records `node` holding `lock` in `mode`; false if a current holder's
  /// mode is incompatible with it.
  bool grant(LockId lock, NodeId node, LockMode mode) {
    Entry& entry = entries_[lock.value()];
    std::lock_guard guard(entry.mutex);
    bool ok = true;
    for (std::size_t n = 0; n < kNodes; ++n) {
      if (n != node.value() &&
          !hlock::lint::spec_compatible(mode, entry.held[n])) {
        ok = false;
      }
    }
    entry.held[node.value()] = mode;
    return ok;
  }

  void clear(LockId lock, NodeId node) {
    Entry& entry = entries_[lock.value()];
    std::lock_guard guard(entry.mutex);
    entry.held[node.value()] = LockMode::kNL;
  }

 private:
  struct Entry {
    std::mutex mutex;
    std::array<LockMode, kNodes> held{};
  };
  std::unique_ptr<Entry[]> entries_;
};

struct Shared {
  std::atomic<int> phase{kWait};
  std::atomic<int> ready{0};
  std::atomic<int> finished{0};
  std::int64_t window_start = 0;  // written before phase = kMeasure
  std::int64_t slice_ns = 1;
  int slices = 1;
  bool traced = false;
};

struct ClientState {
  explicit ClientState(int slices)
      : acquire(static_cast<std::size_t>(slices)),
        completed(static_cast<std::size_t>(slices), 0) {}

  alignas(64) std::atomic<std::int64_t> op_started{0};
  std::vector<LatencyHistogram> acquire;  // per slice
  std::vector<std::uint64_t> completed;   // per slice
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t deadline_misses = 0;
  std::string error;
  // Traced runs.
  LatencyHistogram lock_ns, unlock_ns, upgrade_ns;
  double call_ns = 0;
  double root_self_ns = 0;
  std::uint64_t traced_ops = 0;
  std::vector<Span> spans;
};

void client_loop(ThreadCluster& cluster, const WorkloadSpec& spec,
                 std::uint64_t seed, NodeId node, Shared& shared,
                 ClientState& state, HolderTable& holders) {
  OpStream stream(spec, seed, node);
  // Root + two locks + upgrade + two unlocks: the largest op.
  if (shared.traced) state.spans.reserve(kSpanOpsPerClient * 6);
  shared.ready.fetch_add(1);
  shared.ready.notify_all();
  shared.phase.wait(kWait);
  const auto node_tag = static_cast<std::uint8_t>(node.value());
  std::uint64_t seq = 0;
  std::vector<Span> op_spans;
  for (;;) {
    const int phase = shared.phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    const bool counted = phase == kMeasure;
    const bool traced = shared.traced && counted;
    const std::vector<LockStep> op = stream.next();
    const std::uint64_t op_id = (std::uint64_t{node.value()} << 40) | seq++;
    op_spans.clear();
    const auto timed = [&](SpanKind kind, LockId lock, auto&& call) {
      if (!traced) {
        call();
        return;
      }
      const std::int64_t begin = now_ns();
      call();
      const std::int64_t end = now_ns();
      op_spans.push_back(Span{op_id, begin, end, lock.value(), kind, node_tag});
    };

    const std::int64_t start = now_ns();
    state.op_started.store(start, std::memory_order_relaxed);
    bool ok = true;
    for (const LockStep& step : op) {
      timed(SpanKind::kLock, step.lock,
            [&] { cluster.lock(node, step.lock, step.mode); });
      ok = holders.grant(step.lock, node, step.mode) && ok;
      if (step.upgrade_midway) {
        timed(SpanKind::kUpgrade, step.lock,
              [&] { cluster.upgrade(node, step.lock); });
        ok = holders.grant(step.lock, node, LockMode::kW) && ok;
      }
    }
    const std::int64_t acquired = now_ns();
    for (auto it = op.rbegin(); it != op.rend(); ++it) {
      holders.clear(it->lock, node);
      timed(SpanKind::kUnlock, it->lock,
            [&] { cluster.unlock(node, it->lock); });
    }
    const std::int64_t end = now_ns();
    state.op_started.store(0, std::memory_order_relaxed);
    if (!counted) continue;

    const bool late = end - start > kSoftDeadlineNs;
    ++state.attempted;
    if (!ok) ++state.violations;
    if (late) ++state.deadline_misses;
    if (!ok || late) {
      ++state.failed;
      continue;
    }
    const auto slice = static_cast<std::size_t>(std::min<std::int64_t>(
        (start - shared.window_start) / shared.slice_ns, shared.slices - 1));
    state.acquire[slice].record(acquired - start);
    ++state.completed[slice];
    if (!traced) continue;

    double calls = 0;
    for (const Span& span : op_spans) {
      const std::int64_t took = span.end_ns - span.start_ns;
      calls += static_cast<double>(took);
      (span.kind == SpanKind::kLock     ? state.lock_ns
       : span.kind == SpanKind::kUnlock ? state.unlock_ns
                                        : state.upgrade_ns)
          .record(took);
    }
    state.call_ns += calls;
    state.root_self_ns += static_cast<double>(end - start) - calls;
    ++state.traced_ops;
    if (state.traced_ops <= kSpanOpsPerClient) {
      state.spans.push_back(Span{op_id, start, end, 0, SpanKind::kOp, node_tag});
      state.spans.insert(state.spans.end(), op_spans.begin(), op_spans.end());
    }
  }
}

/// The registry series a traced run reads (all zero without a registry).
struct RegistryView {
  double engine_msgs = 0;
  double recv_batch_sum = 0;
  double recv_batch_count = 0;
  double mailbox_depth_max = 0;
  double retries = 0;
};

RegistryView read_registry(const hlock::telemetry::Registry* registry) {
  RegistryView view;
  if (registry == nullptr) return view;
  for (const hlock::telemetry::Sample& sample : registry->snapshot().samples) {
    const std::string_view family = hlock::telemetry::family_of(sample.name);
    if (family == "hlock_messages_sent_total") {
      view.engine_msgs += sample.value;
    } else if (family == "hlock_recv_batch_size") {
      view.recv_batch_sum += sample.histogram.sum;
      view.recv_batch_count += static_cast<double>(sample.histogram.count);
    } else if (family == "hlock_mailbox_depth") {
      view.mailbox_depth_max = std::max(view.mailbox_depth_max, sample.value);
    } else if (family == "hlock_transport_send_retries_total") {
      view.retries += sample.value;
    }
  }
  return view;
}

/// Counters read at every slice boundary.
struct Boundary {
  std::int64_t t = 0;
  double cpu_s = 0;
  std::uint64_t ctx = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  RegistryView registry;
};

Boundary read_boundary(ThreadCluster& cluster,
                       const hlock::telemetry::Registry* registry) {
  Boundary boundary;
  boundary.t = now_ns();
  const Usage usage = process_usage();
  boundary.cpu_s = usage.cpu_s;
  boundary.ctx = usage.context_switches;
  boundary.syscalls = io_syscalls();
  boundary.msgs = cluster.messages_sent();
  boundary.bytes = cluster.bytes_sent();
  boundary.registry = read_registry(registry);
  return boundary;
}

[[noreturn]] void abort_run(const std::string& why) {
  std::fprintf(stderr, "lockbench: FAILED: %s\n", why.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  // Client threads may be blocked inside the cluster for good; a normal
  // teardown would wait for them forever.
  std::_Exit(3);
}

/// Sleeps until `deadline_ns`, checking every client for a wedged op on
/// the way; `on_tick` runs on every poll and ends the wait early by
/// returning true.
template <typename OnTick>
void watch_until(std::int64_t deadline_ns,
                 std::vector<std::unique_ptr<ClientState>>& states,
                 OnTick&& on_tick) {
  for (;;) {
    const std::int64_t now = now_ns();
    for (std::size_t n = 0; n < states.size(); ++n) {
      const std::int64_t since =
          states[n]->op_started.load(std::memory_order_relaxed);
      if (since != 0 && now - since > kHardDeadlineNs) {
        abort_run("node " + std::to_string(n) + " op in flight for " +
                  std::to_string((now - since) / 1'000'000) +
                  " ms (wedge past the per-op deadline)");
      }
    }
    if (on_tick() || now >= deadline_ns) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<std::int64_t>(deadline_ns - now, 10'000'000)));
  }
}

/// Sums over every measured round, turned into the result at the end.
struct Totals {
  std::vector<double> ops_rate, p50, p99, cpu, msgs, bytes;
  double window_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t ctx = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t transport_msgs = 0;
  double engine_msgs = 0;
  double recv_batch_sum = 0;
  double recv_batch_count = 0;
  double call_ns = 0;
  double root_self_ns = 0;
};

/// One cluster instance with its clients, from construction (timed as
/// set-up) through an optional measured window to teardown.
class Round {
 public:
  Round(const WorkloadSpec& spec, std::uint64_t seed,
        const ClosedLoopOptions& options, bool traced)
      : spec_(spec),
        options_(options),
        registry_(spec.telemetry || traced
                      ? std::make_unique<hlock::telemetry::Registry>()
                      : nullptr),
        holders_(spec.lock_count() + 1) {
    shared_.slices = options.slices_per_round;
    shared_.slice_ns = static_cast<std::int64_t>(
        options.window_s * 1e9 / (options.rounds * options.slices_per_round));
    shared_.traced = traced;
    for (std::size_t n = 0; n < kNodes; ++n) {
      states_.push_back(std::make_unique<ClientState>(shared_.slices));
    }
    const std::int64_t start = now_ns();
    cluster_ = std::make_unique<ThreadCluster>(
        spec.cluster_options(seed, registry_.get()));
    for (std::size_t n = 0; n < kNodes; ++n) {
      clients_.emplace_back([this, seed, n] {
        try {
          client_loop(*cluster_, spec_, seed,
                      NodeId{static_cast<std::uint32_t>(n)}, shared_,
                      *states_[n], holders_);
        } catch (const std::exception& error) {
          states_[n]->error = error.what();
        }
        shared_.finished.fetch_add(1);
      });
    }
    for (int ready = shared_.ready.load(); ready < static_cast<int>(kNodes);
         ready = shared_.ready.load()) {
      shared_.ready.wait(ready);
    }
    setup_s_ = static_cast<double>(now_ns() - start) / 1e9;
  }

  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  ~Round() { stop(); }

  double setup_s() const { return setup_s_; }

  /// Warm-up, then the sliced window; appends per-slice figures to
  /// `totals` and correctness findings to `result`.
  void measure(ClosedLoopResult& result, Totals& totals, bool last) {
    const auto no_op = [] { return false; };
    shared_.phase.store(kWarmup, std::memory_order_release);
    shared_.phase.notify_all();
    watch_until(now_ns() + static_cast<std::int64_t>(options_.warmup_s * 1e9),
                states_, no_op);
    std::vector<Boundary> boundaries;
    shared_.window_start = now_ns();
    boundaries.push_back(read_boundary(*cluster_, registry_.get()));
    shared_.phase.store(kMeasure, std::memory_order_release);
    double mailbox_max = 0;
    for (int s = 1; s <= shared_.slices; ++s) {
      watch_until(shared_.window_start + s * shared_.slice_ns, states_, [&] {
        if (shared_.traced) {
          mailbox_max = std::max(
              mailbox_max, read_registry(registry_.get()).mailbox_depth_max);
        }
        return false;
      });
      boundaries.push_back(read_boundary(*cluster_, registry_.get()));
    }
    stop();
    if (spec_.recovery && last) {
      const std::int64_t idle_start = now_ns();
      const std::uint64_t idle_msgs = cluster_->messages_sent();
      watch_until(idle_start + kIdleProbeNs, states_, no_op);
      result.idle_msgs_per_s =
          static_cast<double>(cluster_->messages_sent() - idle_msgs) /
          (static_cast<double>(now_ns() - idle_start) / 1e9);
    }
    check(result);
    for (int s = 0; s < shared_.slices; ++s) {
      add_slice(boundaries[static_cast<std::size_t>(s)],
                boundaries[static_cast<std::size_t>(s) + 1],
                static_cast<std::size_t>(s), totals, result);
    }
    const Boundary& first = boundaries.front();
    const Boundary& final = boundaries.back();
    totals.window_s += static_cast<double>(final.t - first.t) / 1e9;
    totals.ctx += final.ctx - first.ctx;
    totals.syscalls += final.syscalls - first.syscalls;
    totals.transport_msgs += final.msgs - first.msgs;
    totals.engine_msgs += final.registry.engine_msgs - first.registry.engine_msgs;
    totals.recv_batch_sum +=
        final.registry.recv_batch_sum - first.registry.recv_batch_sum;
    totals.recv_batch_count +=
        final.registry.recv_batch_count - first.registry.recv_batch_count;
    if (!shared_.traced) return;
    for (auto& state : states_) {
      result.lock_ns.merge(state->lock_ns);
      result.unlock_ns.merge(state->unlock_ns);
      result.upgrade_ns.merge(state->upgrade_ns);
      totals.call_ns += state->call_ns;
      totals.root_self_ns += state->root_self_ns;
      result.spans.insert(result.spans.end(), state->spans.begin(),
                          state->spans.end());
    }
    result.mailbox_depth_max = std::max(result.mailbox_depth_max, mailbox_max);
    result.retries += read_registry(registry_.get()).retries;
    if (last && result.upgrade_ns.count() == 0) upgrade_probe(result);
  }

 private:
  /// Stops the clients (idempotent); rethrows nothing — a client error
  /// aborts the run.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    shared_.phase.store(kStop, std::memory_order_release);
    shared_.phase.notify_all();
    watch_until(now_ns() + kHardDeadlineNs, states_, [&] {
      return shared_.finished.load() == static_cast<int>(kNodes);
    });
    for (std::thread& client : clients_) client.join();
    for (std::size_t n = 0; n < kNodes; ++n) {
      if (!states_[n]->error.empty()) {
        abort_run("client " + std::to_string(n) + ": " + states_[n]->error);
      }
    }
  }

  void check(ClosedLoopResult& result) {
    for (const auto& state : states_) {
      result.attempted += state->attempted;
      result.failed += state->failed;
      result.overlap_violations += state->violations;
      result.deadline_misses += state->deadline_misses;
    }
    result.receiver_errors += cluster_->receiver_errors();
    for (std::size_t n = 0; n < kNodes; ++n) {
      const NodeId node{static_cast<std::uint32_t>(n)};
      for (std::uint32_t lock = 0; lock < spec_.lock_count(); ++lock) {
        if (cluster_->holds(node, LockId{lock})) ++result.leftover_holds;
      }
      if (spec_.recovery) {
        result.suspicions += cluster_->recovery_counters(node).suspicions;
        result.stale_drops += cluster_->stale_drops(node);
      }
    }
  }

  void add_slice(const Boundary& from, const Boundary& to, std::size_t index,
                 Totals& totals, ClosedLoopResult& result) {
    LatencyHistogram merged;
    std::uint64_t ops = 0;
    for (const auto& state : states_) {
      merged.merge(state->acquire[index]);
      ops += state->completed[index];
    }
    if (ops == 0) return;
    const double dt = static_cast<double>(to.t - from.t) / 1e9;
    const double n_ops = static_cast<double>(ops);
    totals.ops_rate.push_back(n_ops / dt);
    totals.p50.push_back(merged.quantile_ns(0.50) / 1e3);
    totals.p99.push_back(merged.quantile_ns(0.99) / 1e3);
    totals.cpu.push_back((to.cpu_s - from.cpu_s) * 1e6 / n_ops);
    totals.msgs.push_back(static_cast<double>(to.msgs - from.msgs) / n_ops);
    totals.bytes.push_back(static_cast<double>(to.bytes - from.bytes) / n_ops);
    totals.completed += ops;
    result.acquire_samples += merged.count();
  }

  /// Workloads without upgrades: times the upgrade call on a lock of its
  /// own, uncontended, so the metric still measures the call path.
  void upgrade_probe(ClosedLoopResult& result) {
    result.upgrade_probe = true;
    const LockId probe{static_cast<std::uint32_t>(spec_.lock_count())};
    for (int i = 0; i < kUpgradeProbeCalls; ++i) {
      cluster_->lock(NodeId{0}, probe, LockMode::kU);
      const std::int64_t begin = now_ns();
      cluster_->upgrade(NodeId{0}, probe);
      result.upgrade_ns.record(now_ns() - begin);
      cluster_->unlock(NodeId{0}, probe);
    }
  }

  const WorkloadSpec& spec_;
  const ClosedLoopOptions& options_;
  // Declared before the cluster: the registry must outlive it.
  std::unique_ptr<hlock::telemetry::Registry> registry_;
  Shared shared_;
  HolderTable holders_;
  std::vector<std::unique_ptr<ClientState>> states_;
  std::unique_ptr<ThreadCluster> cluster_;
  // Declared after everything the client threads use.
  std::vector<std::thread> clients_;
  double setup_s_ = 0;
  bool stopped_ = false;
};

}  // namespace

ClosedLoopResult run_closed_loop(const WorkloadSpec& spec, std::uint64_t seed,
                                 const ClosedLoopOptions& options) {
  ClosedLoopResult result;
  Totals totals;
  std::vector<double> setup_samples;
  for (int i = 0; i < options.extra_setups; ++i) {
    setup_samples.push_back(Round(spec, seed, options, false).setup_s());
  }
  for (int round = 0; round < options.rounds; ++round) {
    Round measured(spec, seed, options, options.traced);
    setup_samples.push_back(measured.setup_s());
    measured.measure(result, totals, round + 1 == options.rounds);
  }

  if (result.overlap_violations != 0) {
    result.errors.push_back(std::to_string(result.overlap_violations) +
                            " grants overlapped an incompatible holder");
  }
  if (result.deadline_misses != 0) {
    result.errors.push_back(std::to_string(result.deadline_misses) +
                            " ops exceeded the 1 s per-op deadline");
  }
  if (result.receiver_errors != 0) {
    result.errors.push_back(std::to_string(result.receiver_errors) +
                            " receiver errors");
  }
  if (result.suspicions != 0 || result.stale_drops != 0) {
    result.errors.push_back("fault-free run saw " +
                            std::to_string(result.suspicions) +
                            " suspicions and " +
                            std::to_string(result.stale_drops) +
                            " stale drops");
  }
  if (result.leftover_holds != 0) {
    result.errors.push_back(std::to_string(result.leftover_holds) +
                            " locks still held after every client stopped");
  }

  result.ops_per_s = median(totals.ops_rate);
  result.acquire_p50_us = median(totals.p50);
  result.acquire_p99_us = median(totals.p99);
  result.cpu_us_per_op = median(totals.cpu);
  result.msgs_per_op = median(totals.msgs);
  result.bytes_per_op = median(totals.bytes);
  result.setup_s = median(setup_samples);
  result.peak_rss_mb = process_usage().peak_rss_mb;

  const double completed =
      static_cast<double>(std::max<std::uint64_t>(totals.completed, 1));
  result.client_us_per_op = totals.window_s * 1e6 * kNodes / completed;
  result.ctx_switches_per_op = static_cast<double>(totals.ctx) / completed;
  result.syscalls_per_op = static_cast<double>(totals.syscalls) / completed;
  result.msgs_per_s =
      static_cast<double>(totals.transport_msgs) / totals.window_s;
  result.engine_msgs_per_s = totals.engine_msgs / totals.window_s;
  result.recv_batch_mean =
      totals.recv_batch_sum / std::max(1.0, totals.recv_batch_count);
  result.call_us_per_op = totals.call_ns / 1e3 / completed;
  result.root_self_us_per_op = totals.root_self_ns / 1e3 / completed;
  return result;
}

}  // namespace lockbench
