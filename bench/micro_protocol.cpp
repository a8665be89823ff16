// Micro-benchmarks of the protocol hot paths (google-benchmark): rule-table
// lookups, automaton request/grant/release steps, and the wire codec. These
// quantify the per-message CPU cost of the protocol engine, which the paper
// treats as negligible next to network latency — the numbers here justify
// that assumption.
#include <benchmark/benchmark.h>

#include <utility>

#include "core/hier_automaton.hpp"
#include "core/mode_tables.hpp"
#include "naimi/naimi_automaton.hpp"
#include "proto/codec.hpp"

namespace {

using namespace hlock;
using core::HierAutomaton;
using proto::LockId;
using proto::LockMode;
using proto::NodeId;

void BM_TableCompatibility(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const LockMode a = proto::kAllModes[i % 6];
    const LockMode b = proto::kRealModes[i % 5];
    benchmark::DoNotOptimize(core::incompatible(a, b));
    ++i;
  }
}
BENCHMARK(BM_TableCompatibility);

void BM_TableFreezeSet(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const LockMode a = proto::kAllModes[i % 6];
    const LockMode b = proto::kRealModes[i % 5];
    benchmark::DoNotOptimize(core::freeze_set(a, b));
    ++i;
  }
}
BENCHMARK(BM_TableFreezeSet);

void BM_HierSelfGrantCycle(benchmark::State& state) {
  // Token-local request/release: the zero-message fast path of Rule 2.
  HierAutomaton token{NodeId{0}, LockId{0}, true, NodeId::none()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(token.request(LockMode::kIR));
    benchmark::DoNotOptimize(token.release());
  }
}
BENCHMARK(BM_HierSelfGrantCycle);

void BM_HierGrantRoundTrip(benchmark::State& state) {
  // Request -> copy grant -> release -> release notification between a
  // token and one child, exercising the full message path of both sides.
  // Steady state: both automatons are built once; each round trip leaves
  // the child idle under the token, ready for the next.
  HierAutomaton token{NodeId{0}, LockId{0}, true, NodeId::none()};
  HierAutomaton child{NodeId{1}, LockId{0}, false, NodeId{0}};
  benchmark::DoNotOptimize(token.request(LockMode::kR));
  for (auto _ : state) {
    core::Effects request = child.request(LockMode::kR);
    core::Effects grant = token.on_message(request.messages.at(0));
    core::Effects entered = child.on_message(grant.messages.at(0));
    core::Effects release = child.release();
    core::Effects done = token.on_message(release.messages.at(0));
    benchmark::DoNotOptimize(entered);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_HierGrantRoundTrip);

void BM_NaimiTokenPass(benchmark::State& state) {
  // One token pass per iteration, steady state: the requester's request
  // reaches the idle holder, the token moves, the requester enters and
  // leaves its critical section, and the two nodes swap roles.
  naimi::NaimiAutomaton a{NodeId{0}, LockId{0}, true, NodeId::none()};
  naimi::NaimiAutomaton b{NodeId{1}, LockId{0}, false, NodeId{0}};
  naimi::NaimiAutomaton* holder = &a;
  naimi::NaimiAutomaton* requester = &b;
  for (auto _ : state) {
    core::Effects request = requester->request();
    core::Effects pass = holder->on_message(request.messages.at(0));
    core::Effects entered = requester->on_message(pass.messages.at(0));
    benchmark::DoNotOptimize(entered);
    benchmark::DoNotOptimize(requester->release());
    std::swap(holder, requester);
  }
}
BENCHMARK(BM_NaimiTokenPass);

void BM_CodecEncode(benchmark::State& state) {
  const proto::Message message{
      NodeId{1}, NodeId{2}, LockId{3},
      proto::HierToken{LockMode::kW, LockMode::kIR,
                       {proto::QueuedRequest{NodeId{4}, LockMode::kR, 9},
                        proto::QueuedRequest{NodeId{5}, LockMode::kW, 10}}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::encode(message));
  }
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const proto::Message message{
      NodeId{1}, NodeId{2}, LockId{3},
      proto::HierToken{LockMode::kW, LockMode::kIR,
                       {proto::QueuedRequest{NodeId{4}, LockMode::kR, 9}}}};
  const std::vector<std::byte> wire = proto::encode(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode(wire));
  }
}
BENCHMARK(BM_CodecDecode);

}  // namespace

BENCHMARK_MAIN();
