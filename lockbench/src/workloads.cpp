#include "workloads.hpp"

#include <sstream>

#include "workload/mode_mix.hpp"

namespace lockbench {

namespace {

std::vector<WorkloadSpec> make_workloads() {
  WorkloadSpec excl;
  excl.name = "excl-inproc";
  excl.why =
      "token remote on most acquires, so per-op time is the delivery path: "
      "codec and batch envelope, mailbox and receiver wake-up";
  excl.lock_pool = 16;

  WorkloadSpec airline;
  airline.name = "airline-local";
  airline.why =
      "paper mode mix with U->W upgrades; most grants come from the local "
      "token or copyset, so core rules, shard fast path and telemetry "
      "dominate";
  airline.airline = true;
  airline.entries = 64;
  airline.own_slice = 0.9;
  airline.telemetry = true;

  WorkloadSpec tcp = excl;
  tcp.name = "excl-tcp-recovery";
  tcp.why =
      "excl-inproc's op stream over TCP loopback with crash recovery on: "
      "socket syscalls, framing, heartbeats and the single engine shard "
      "dominate";
  tcp.transport = hlock::runtime::TransportKind::kTcp;
  tcp.recovery = true;
  return {excl, airline, tcp};
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> workloads = make_workloads();
  for (const WorkloadSpec& spec : workloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

hlock::runtime::ThreadClusterOptions WorkloadSpec::cluster_options(
    std::uint64_t seed, hlock::telemetry::Registry* metrics) const {
  hlock::runtime::ThreadClusterOptions options;
  options.node_count = kNodes;
  options.protocol = hlock::runtime::Protocol::kHierarchical;
  options.transport = transport;
  options.seed = seed;
  options.codec_roundtrip = true;
  options.batching = true;
  options.engine_shards = 0;  // default; recovery forces one shard
  options.metrics = metrics;
  options.recovery.enabled = recovery;
  return options;
}

std::string WorkloadSpec::describe() const {
  std::ostringstream out;
  out << "nodes=" << kNodes << " clients=" << kNodes
      << " protocol=hierarchical transport="
      << (transport == hlock::runtime::TransportKind::kTcp ? "tcp" : "inproc")
      << " codec=on batching=on shards="
      << (recovery ? 1 : hlock::runtime::kDefaultEngineShards)
      << " telemetry=" << (telemetry ? "on" : "off")
      << " recovery=" << (recovery ? "on" : "off");
  if (airline) {
    out << " ops=paper-mix(IR/R/U/IW/W=80/10/4/5/1) entries=" << entries
        << " own-slice=" << own_slice;
  } else {
    out << " ops=W-only lock-pool=" << lock_pool;
  }
  return out.str();
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed, NodeId node)
    : spec_(spec), node_(node), rng_(hlock::Rng(seed).split(node.value())) {}

std::vector<LockStep> OpStream::next() {
  if (!spec_.airline) {
    const auto lock = static_cast<std::uint32_t>(rng_.below(spec_.lock_pool));
    return {LockStep{LockId{lock}, LockMode::kW, false}};
  }
  const LockMode mode = hlock::workload::ModeMix::paper().sample(rng_);
  const std::size_t slice = spec_.entries / kNodes;
  std::size_t entry = 0;
  if (rng_.chance(spec_.own_slice)) {
    entry = node_.value() * slice + rng_.below(slice);
  } else {
    entry = rng_.below(spec_.entries);
  }
  return hlock::workload::plan_op(hlock::workload::AppVariant::kHierarchical,
                                  hlock::workload::op_for_mode(mode), entry,
                                  spec_.entries);
}

}  // namespace lockbench
