// Runtime stall watchdog: flags requests waiting far beyond the observed
// p99 wait time.
//
// The model checker's liveness pass (PR 6) proves starvation-freedom over
// small configurations; this is the live-cluster counterpart of the same
// claim. Every blocking acquire brackets itself with begin()/end(); a
// background thread (or an explicit check_now()) compares each pending
// wait against an adaptive threshold
//
//     max(multiplier × observed-p99-wait, floor)
//
// where the p99 comes from the watchdog's own all-requests wait
// histogram. A wait beyond the threshold bumps the
// `hlock_stalled_requests_total` counter and invokes the on_stall hook
// exactly once per request (re-arming only if the request is still
// pending on a later sweep after 2× the threshold, so a genuinely wedged
// request keeps making noise but a slow one doesn't spam). A stall that
// ends between sweeps is counted by end(), against the threshold in force
// before its wait is recorded; the next sweep runs its hook. The sim wires
// on_stall to dump_flight_record + a metrics snapshot for post-mortem.
//
// The p99 floor exists because early in a run the histogram is empty or
// tiny; with no signal yet, only waits beyond the configured floor count
// as stalls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/sync.hpp"

namespace hlock::telemetry {

struct WatchdogOptions {
  /// Stall threshold = max(multiplier × p99 wait, floor).
  double multiplier = 8.0;
  std::chrono::milliseconds floor{100};
  /// Sweep period of the background thread (start()).
  std::chrono::milliseconds check_interval{250};
};

/// Passed to the on_stall hook, one per flagged request.
struct StallReport {
  std::string label;     ///< as given to begin()
  double waited_ms = 0;  ///< wait so far when flagged
  double threshold_ms = 0;
  double p99_ms = 0;     ///< observed p99 the threshold derives from
  std::uint64_t pending = 0;  ///< total requests in flight at flag time
};

/// See file comment.
class StallWatchdog {
 public:
  /// Instruments itself into `registry`: hlock_stalled_requests_total,
  /// hlock_request_wait_ms (histogram) and hlock_pending_requests (gauge).
  StallWatchdog(Registry& registry, WatchdogOptions options);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Invoked (outside the watchdog mutex, on the sweeping thread, i.e. in
  /// check_now() or stop()) for each newly flagged stall. Set before
  /// start().
  void set_on_stall(std::function<void(const StallReport&)> hook);

  /// A request started blocking; returns the key for the matching end().
  /// `label` names the request in reports ("node=2 lock=L mode=W").
  std::uint64_t begin(std::string label) HLOCK_EXCLUDES(mutex_);

  /// The request stopped waiting (granted or failed). Records the wait in
  /// the histogram, counting it as a stall if no sweep did. Unknown keys
  /// are ignored (idempotent).
  void end(std::uint64_t key) HLOCK_EXCLUDES(mutex_);

  /// Sweeps pending requests once; returns how many stalls it reported,
  /// those end() counted since the last sweep included.
  std::size_t check_now() HLOCK_EXCLUDES(mutex_);

  /// Launches the periodic sweep thread / stops it (reporting what end()
  /// counted since the last sweep). start() is a no-op when running; the
  /// destructor stops.
  void start();
  void stop();

  /// Current stall threshold in ms (for tests and dashboards).
  double threshold_ms() const;

  std::uint64_t stalled_total() const { return stalled_.value(); }

 private:
  struct Pending {
    std::string label;
    std::chrono::steady_clock::time_point since;
    /// Next sweep time at which this request may be (re-)flagged.
    std::chrono::steady_clock::time_point arm_at;
    bool flagged = false;
  };

  void run();
  void run_hook(const std::vector<StallReport>& reports) const;

  const WatchdogOptions options_;
  Counter& stalled_;
  Histogram& wait_ms_;
  Gauge& pending_gauge_;
  std::function<void(const StallReport&)> on_stall_;

  mutable Mutex mutex_;
  CondVar wake_cv_;
  bool stopping_ HLOCK_GUARDED_BY(mutex_) = false;
  bool running_ HLOCK_GUARDED_BY(mutex_) = false;
  std::uint64_t next_key_ HLOCK_GUARDED_BY(mutex_) = 1;
  std::map<std::uint64_t, Pending> pending_ HLOCK_GUARDED_BY(mutex_);
  /// Stalls end() counted, for the next sweep's hook.
  std::vector<StallReport> ended_stalls_ HLOCK_GUARDED_BY(mutex_);

  sched::Thread thread_;
};

}  // namespace hlock::telemetry
