#include "telemetry/watchdog.hpp"

#include <utility>
#include <vector>

namespace hlock::telemetry {

namespace {
double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
}  // namespace

StallWatchdog::StallWatchdog(Registry& registry, WatchdogOptions options)
    : options_(options),
      stalled_(registry.counter("hlock_stalled_requests_total")),
      wait_ms_(registry.histogram("hlock_request_wait_ms")),
      pending_gauge_(registry.gauge("hlock_pending_requests")) {}

StallWatchdog::~StallWatchdog() { stop(); }

void StallWatchdog::set_on_stall(
    std::function<void(const StallReport&)> hook) {
  on_stall_ = std::move(hook);
}

std::uint64_t StallWatchdog::begin(std::string label) {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(mutex_);
  const std::uint64_t key = next_key_++;
  pending_.emplace(key, Pending{std::move(label), now, now, false});
  pending_gauge_.set(static_cast<double>(pending_.size()));
  return key;
}

void StallWatchdog::end(std::uint64_t key) {
  const auto now = std::chrono::steady_clock::now();
  // The threshold in force before this wait is recorded: a long wait
  // raises the p99, and with it the threshold it would be judged against.
  const double threshold = threshold_ms();
  MutexLock lock(mutex_);
  const auto it = pending_.find(key);
  if (it == pending_.end()) {
    return;
  }
  const double waited = ms_between(it->second.since, now);
  if (!it->second.flagged && waited >= threshold) {
    // A stall that ended between sweeps still counts; the next sweep runs
    // its hook, so the hook never runs on a client thread.
    stalled_.inc();
    ended_stalls_.push_back({std::move(it->second.label), waited, threshold,
                             wait_ms_.quantile(0.99), pending_.size()});
  }
  wait_ms_.record(waited);
  pending_.erase(it);
  pending_gauge_.set(static_cast<double>(pending_.size()));
}

double StallWatchdog::threshold_ms() const {
  const double p99 = wait_ms_.quantile(0.99);
  const double floor_ms =
      std::chrono::duration<double, std::milli>(options_.floor).count();
  return std::max(options_.multiplier * p99, floor_ms);
}

std::size_t StallWatchdog::check_now() {
  const auto now = std::chrono::steady_clock::now();
  // The p99 read touches the histogram's atomics only — safe without the
  // watchdog mutex, and taking it outside keeps record paths short.
  const double threshold = threshold_ms();
  const auto threshold_dur =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(threshold));

  std::vector<StallReport> reports;
  {
    MutexLock lock(mutex_);
    reports.swap(ended_stalls_);  // already counted by end()
    for (auto& [key, p] : pending_) {
      if (now < p.arm_at || now - p.since < threshold_dur) {
        continue;
      }
      StallReport report;
      report.label = p.label;
      report.waited_ms = ms_between(p.since, now);
      report.threshold_ms = threshold;
      report.p99_ms = wait_ms_.quantile(0.99);
      report.pending = pending_.size();
      reports.push_back(std::move(report));
      stalled_.inc();
      p.flagged = true;
      // Re-arm far enough out that a wedged request re-reports, while a
      // merely slow one finishes quietly in between.
      p.arm_at = now + 2 * threshold_dur;
    }
  }
  run_hook(reports);
  return reports.size();
}

void StallWatchdog::run_hook(const std::vector<StallReport>& reports) const {
  if (!on_stall_) return;
  for (const StallReport& report : reports) on_stall_(report);
}

void StallWatchdog::start() {
  {
    MutexLock lock(mutex_);
    if (running_) {
      return;
    }
    running_ = true;
    stopping_ = false;
  }
  thread_ = sched::Thread("telemetry-watchdog", [this] { run(); });
}

void StallWatchdog::stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) {
      return;
    }
    stopping_ = true;
    wake_cv_.notify_all();
  }
  thread_.join();
  std::vector<StallReport> ended;
  {
    MutexLock lock(mutex_);
    running_ = false;
    ended.swap(ended_stalls_);
  }
  run_hook(ended);  // the sweeper is gone: its last reports run here
}

void StallWatchdog::run() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      const auto deadline =
          std::chrono::steady_clock::now() + options_.check_interval;
      while (!stopping_) {
        if (wake_cv_.wait_until(mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) {
        return;
      }
    }
    check_now();
  }
}

}  // namespace hlock::telemetry
