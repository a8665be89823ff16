// lockbench: closed-loop benchmark of the hlock lock service.
//
//   lockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics of one workload; --trace 1
// measures the per-layer metrics (an untraced and a traced closed-loop
// window of seconds/2 each, then the direct layer replays) and prints the
// layer budget and the tracing overhead. Both print a human-readable report
// and, as the last line, one JSON object {correct, attempted, failed,
// metrics}. The exit code is 0 only when every correctness check passed.
// See README.md for the workloads, the metrics and which layer metric is
// expected to move which end-to-end metric.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace lockbench {
namespace {

/// Ops per node in the core/proto replay.
constexpr std::size_t kReplayOpsPerNode = 5000;
/// Ops per node in the property-check replays.
constexpr std::size_t kPropertyOpsPerNode = 1000;
/// Bare core replays; their counts must agree exactly.
constexpr int kReplayRepeats = 3;
/// send_batch calls timed over TCP in the transport replay.
constexpr std::size_t kTcpReplaySends = 3000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "lockbench: %s\nusage: lockbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds < 1 || args.seconds > 60) usage("--seconds must be 1..60");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  return args;
}

/// One reported metric, in report order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_result_json(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double failed_share(const ClosedLoopResult& run) {
  return run.attempted == 0 ? 0.0
                            : static_cast<double>(run.failed) /
                                  static_cast<double>(run.attempted);
}

std::vector<Metric> end_to_end(const ClosedLoopResult& run) {
  return {
      {"ops_per_s", run.ops_per_s, "1/s"},
      {"acquire_p50_us", run.acquire_p50_us, "us"},
      {"acquire_p99_us", run.acquire_p99_us, "us"},
      {"cpu_us_per_op", run.cpu_us_per_op, "us"},
      {"msgs_per_op", run.msgs_per_op, "count/op"},
      {"bytes_per_op", run.bytes_per_op, "B/op"},
      {"setup_s", run.setup_s, "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

void print_end_to_end(const char* title, const ClosedLoopResult& run) {
  print_metrics(title, end_to_end(run));
  std::printf("  %-30s %16.6f share (%llu of %llu ops attempted)\n",
              "failed_op_share", failed_share(run),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  std::printf("  acquire samples %llu (%llu beyond p99), medians over "
              "per-slice figures\n",
              static_cast<unsigned long long>(run.acquire_samples),
              static_cast<unsigned long long>(run.acquire_samples / 100));
  for (const std::string& error : run.errors) {
    std::printf("  CORRECTNESS FAILURE: %s\n", error.c_str());
  }
}

/// The workload-property check: each workload stresses what its "why"
/// claims. The replay figures are deterministic, so the excl-inproc vs
/// airline-local comparison is printed (and enforced) on every run; the
/// heartbeat figure comes from the live cluster of excl-tcp-recovery runs.
bool property_check(const WorkloadSpec& spec, std::uint64_t seed,
                    double heartbeats_per_s) {
  const auto replay_of = [&](const char* name) {
    return replay_core(*find_workload(name), seed, kPropertyOpsPerNode, false,
                       false);
  };
  const CoreReplay excl = replay_of("excl-inproc");
  const CoreReplay airline = replay_of("airline-local");
  const double excl_msgs = static_cast<double>(excl.msgs) /
                           static_cast<double>(excl.ops);
  const double airline_msgs = static_cast<double>(airline.msgs) /
                              static_cast<double>(airline.ops);
  const double local_share = static_cast<double>(airline.local_grants) /
                             static_cast<double>(airline.grants);
  const bool msgs_ok = excl_msgs >= 1.3 * airline_msgs;
  const bool local_ok = local_share > 0.5;
  std::printf("workload-property check (core replay, seed %llu)\n",
              static_cast<unsigned long long>(seed));
  std::printf("  %s excl-inproc msgs_per_op %.3f >= 1.3 x airline-local %.3f\n",
              msgs_ok ? "PASS" : "FAIL", excl_msgs, airline_msgs);
  std::printf("  %s airline-local core.local_grant_share %.3f > 0.5\n",
              local_ok ? "PASS" : "FAIL", local_share);
  bool heartbeats_ok = true;
  if (spec.recovery) {
    heartbeats_ok = heartbeats_per_s > 0;
    std::printf("  %s excl-tcp-recovery recovery.heartbeats_per_s %.1f > 0\n",
                heartbeats_ok ? "PASS" : "FAIL", heartbeats_per_s);
  } else {
    std::printf("  ---- recovery.heartbeats_per_s > 0 is checked on "
                "excl-tcp-recovery runs\n");
  }
  return msgs_ok && local_ok && heartbeats_ok;
}

void write_spans(const std::string& dir, const Args& args,
                 const std::vector<Span>& spans) {
  if (dir.empty() || spans.empty()) return;
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.csv";
  std::ofstream out(path);
  static const char* const kNames[] = {"op", "lock", "unlock", "upgrade"};
  std::int64_t origin = spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << "op,span,node,lock,start_ns,end_ns\n";
  for (const Span& span : spans) {
    out << span.op << ',' << kNames[static_cast<int>(span.kind)] << ','
        << static_cast<int>(span.node) << ',' << span.lock << ','
        << span.start_ns - origin << ',' << span.end_ns - origin << '\n';
  }
  std::printf("spans: %zu written to %s (root span per op, one child per "
              "cluster call, shared op id)\n",
              spans.size(), path.c_str());
}

int run_untraced(const WorkloadSpec& spec, const Args& args) {
  ClosedLoopOptions options;
  options.window_s = args.seconds;
  const ClosedLoopResult run = run_closed_loop(spec, args.seed, options);
  print_end_to_end("end-to-end (untraced)", run);
  const bool properties =
      property_check(spec, args.seed, run.idle_msgs_per_s);
  const bool correct = run.errors.empty() && properties;
  print_result_json(correct, run.attempted, run.failed, end_to_end(run));
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  ClosedLoopOptions options;
  options.window_s = args.seconds / 2.0;
  options.rounds = 2;
  options.extra_setups = 0;
  const ClosedLoopResult plain = run_closed_loop(spec, args.seed, options);
  options.traced = true;
  const ClosedLoopResult traced = run_closed_loop(spec, args.seed, options);

  // Core/proto replay: repeated bare runs must agree on every count.
  std::vector<CoreReplay> bare;
  for (int i = 0; i < kReplayRepeats; ++i) {
    bare.push_back(
        replay_core(spec, args.seed, kReplayOpsPerNode, false, i == 0));
  }
  const CoreReplay instrumented =
      replay_core(spec, args.seed, kReplayOpsPerNode, true, false);
  bool deterministic = true;
  for (const CoreReplay& replay : bare) {
    deterministic = deterministic && replay.same_counts(bare.front());
  }
  deterministic = deterministic && instrumented.msgs == bare.front().msgs &&
                  instrumented.bytes == bare.front().bytes &&
                  instrumented.steps == bare.front().steps;
  const CoreReplay& core = bare.front();
  const TransportReplay transport =
      replay_transport(core.stream, kTcpReplaySends);
  const RecoveryReplay recovery = replay_recovery();

  const double ops = static_cast<double>(core.ops);
  const double steps = static_cast<double>(core.steps);
  const double msgs = static_cast<double>(core.msgs);
  std::vector<double> step_ns;
  for (const CoreReplay& replay : bare) step_ns.push_back(replay.step_ns);
  const double bare_step_ns = median(step_ns) / steps;
  const double overhead_ns = instrumented.step_ns / steps - bare_step_ns;
  const double codec_ns = (core.encode_ns + core.decode_ns) / msgs;
  const double heartbeats_per_s =
      spec.recovery ? traced.msgs_per_s - traced.engine_msgs_per_s : 0.0;
  const std::vector<Metric> layers = {
      {"runtime.lock_us.p50", traced.lock_ns.quantile_ns(0.5) / 1e3, "us"},
      {"runtime.lock_us.p99", traced.lock_ns.quantile_ns(0.99) / 1e3, "us"},
      {"runtime.unlock_us.p50", traced.unlock_ns.quantile_ns(0.5) / 1e3, "us"},
      {"runtime.upgrade_us.p50", traced.upgrade_ns.quantile_ns(0.5) / 1e3,
       "us"},
      {"runtime.recv_batch_size.mean", traced.recv_batch_mean, "count"},
      {"runtime.ctx_switches_per_op", traced.ctx_switches_per_op, "count/op"},
      {"core.request_ns.p50", core.request_ns.quantile_ns(0.5), "ns"},
      {"core.deliver_ns.p50", core.deliver_ns.quantile_ns(0.5), "ns"},
      {"core.release_ns.p50", core.release_ns.quantile_ns(0.5), "ns"},
      {"core.upgrade_ns.p50", core.upgrade_ns.quantile_ns(0.5), "ns"},
      {"core.steps_per_op", steps / ops, "count/op"},
      {"core.allocs_per_step", static_cast<double>(core.step_allocs) / steps,
       "count/step"},
      {"core.local_grant_share",
       static_cast<double>(core.local_grants) /
           static_cast<double>(core.grants),
       "share"},
      {"core.forwards_per_op", instrumented.forwards / ops, "count/op"},
      {"core.freezes_per_op", instrumented.freezes / ops, "count/op"},
      {"proto.encode_ns_per_msg", core.encode_ns / msgs, "ns"},
      {"proto.decode_ns_per_msg", core.decode_ns / msgs, "ns"},
      {"proto.allocs_per_msg", static_cast<double>(core.proto_allocs) / msgs,
       "count/msg"},
      {"proto.bytes_per_msg", static_cast<double>(core.bytes) / msgs, "B/msg"},
      {"transport.inproc.msg_ns", transport.inproc_msg_ns, "ns"},
      {"transport.tcp.msg_us", transport.tcp_msg_us, "us"},
      {"transport.tcp.syscalls_per_op", traced.syscalls_per_op, "count/op"},
      {"transport.mailbox_depth.max", traced.mailbox_depth_max, "count"},
      {"transport.retries", traced.retries, "count"},
      {"telemetry.step_overhead_ns", overhead_ns, "ns"},
      {"recovery.heartbeats_per_s", heartbeats_per_s, "1/s"},
      {"recovery.note_alive_ns", recovery.note_alive_ns, "ns"},
      {"recovery.on_tick_ns", recovery.on_tick_ns, "ns"},
      {"recovery.suspicions",
       static_cast<double>(traced.suspicions + recovery.suspicions), "count"},
      {"recovery.stale_drops", static_cast<double>(traced.stale_drops),
       "count"},
      {"trace.overhead_us_per_op",
       traced.client_us_per_op - plain.client_us_per_op, "us"},
  };

  // Layer budget: where one client's wall time per op goes. Inside the
  // cluster calls, each layer's cost per op is its replayed unit cost times
  // its live work per op; what the layers do not explain is the residual
  // (waiting for the token holder, wake-ups, scheduling).
  const double live_msgs = traced.msgs_per_op;
  const double transport_ns =
      spec.transport == hlock::runtime::TransportKind::kTcp
          ? transport.tcp_msg_us * 1e3
          : transport.inproc_msg_ns;
  const double ticks_per_op =
      spec.recovery ? kNodes * 10.0 / std::max(traced.ops_per_s, 1.0) : 0.0;
  const std::vector<Metric> budget = {
      {"benchmark (root span self time)", traced.root_self_us_per_op, "us"},
      {"core (engine steps)", bare_step_ns * steps / ops / 1e3, "us"},
      {"proto (codec, batch envelope)", live_msgs * codec_ns / 1e3, "us"},
      {"transport (mailbox/socket)",
       live_msgs * std::max(transport_ns - codec_ns, 0.0) / 1e3, "us"},
      {"telemetry (instrumented engine)", steps / ops * overhead_ns / 1e3,
       "us"},
      {"recovery (gate + ticker)",
       spec.recovery ? (live_msgs * recovery.note_alive_ns +
                        ticks_per_op * recovery.on_tick_ns) /
                           1e3
                     : 0.0,
       "us"},
  };
  double explained = 0;
  for (const Metric& part : budget) explained += part.value;
  const double residual = traced.client_us_per_op - explained;
  std::vector<Metric> all_layers = layers;
  all_layers.push_back({"budget.residual_us_per_op", residual, "us"});

  print_end_to_end("end-to-end (untraced half)", plain);
  print_end_to_end("end-to-end (traced half)", traced);
  print_metrics("per-layer", all_layers);
  std::printf("layer budget (per op, one client; unit costs from the "
              "replays, work from the traced run)\n");
  std::printf("  %-40s %12.3f us\n", "measured client wall time per op",
              traced.client_us_per_op);
  for (const Metric& part : budget) {
    std::printf("  %-40s %12.3f us %6.1f%%\n", part.name.c_str(), part.value,
                100.0 * part.value / traced.client_us_per_op);
  }
  std::printf("  %-40s %12.3f us %6.1f%%\n",
              "residual (waiting, wake-up, scheduling)", residual,
              100.0 * residual / traced.client_us_per_op);
  std::printf("  (cluster calls %.3f us/op of the measured time)\n",
              traced.call_us_per_op);
  std::printf("tracing overhead (traced - untraced; the traced half also "
              "attaches a telemetry registry)\n");
  std::printf("  ops_per_s %+.1f 1/s, acquire_p50_us %+.3f us, "
              "cpu_us_per_op %+.3f us, client time %+.3f us/op\n",
              traced.ops_per_s - plain.ops_per_s,
              traced.acquire_p50_us - plain.acquire_p50_us,
              traced.cpu_us_per_op - plain.cpu_us_per_op,
              traced.client_us_per_op - plain.client_us_per_op);
  std::printf("replay determinism: %d bare core/proto replays of %zu ops "
              "%s (msgs %llu, bytes %llu, steps %llu, step allocs %llu, "
              "codec allocs %llu)\n",
              kReplayRepeats, static_cast<std::size_t>(core.ops),
              deterministic ? "agree" : "DISAGREE",
              static_cast<unsigned long long>(core.msgs),
              static_cast<unsigned long long>(core.bytes),
              static_cast<unsigned long long>(core.steps),
              static_cast<unsigned long long>(core.step_allocs),
              static_cast<unsigned long long>(core.proto_allocs));
  if (core.upgrade_probe || traced.upgrade_probe) {
    std::printf("  (no upgrades in this op stream: upgrade timings come "
                "from an uncontended U->W probe)\n");
  }
  const bool properties =
      property_check(spec, args.seed, heartbeats_per_s);
  write_spans(args.trace_dir, args, traced.spans);

  const bool correct = plain.errors.empty() && traced.errors.empty() &&
                       deterministic && properties &&
                       recovery.suspicions == 0;
  print_result_json(correct, plain.attempted + traced.attempted,
                    plain.failed + traced.failed, all_layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lockbench

int main(int argc, char** argv) {
  using namespace lockbench;
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = *find_workload(args.workload);
  std::printf("lockbench workload=%s seed=%llu seconds=%d trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("  %s\n  why: %s\n", spec.describe().c_str(), spec.why.c_str());
  try {
    return args.trace == 0 ? run_untraced(spec, args)
                           : run_traced(spec, args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lockbench: FAILED: %s\n", error.what());
    return 3;
  }
}
