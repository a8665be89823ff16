// Outside-in probes of the benchmark process: a counting global
// allocator, getrusage (CPU time, context switches, peak RSS),
// /proc/self/io (read/write syscall counts) and link-time wrappers around
// the socket send/recv calls, which /proc/self/io does not count. None of
// them touches the library; they observe it from the process boundary.
#pragma once

#include <chrono>
#include <cstdint>

namespace lockbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by the calling thread so far (the benchmark
/// replaces the global operator new; the count is thread-local so the hot
/// path pays no shared cache line).
std::uint64_t thread_allocations();

/// Process resource usage (getrusage RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;  ///< user + system
  std::uint64_t context_switches = 0;  ///< voluntary + involuntary
  double peak_rss_mb = 0.0;
};
Usage process_usage();

/// I/O syscalls of the whole process so far: read/write-family calls from
/// /proc/self/io (syscr + syscw; 0 when the file is unavailable) plus the
/// socket send()/recv() calls seen by the link-time wrappers.
std::uint64_t io_syscalls();

}  // namespace lockbench
