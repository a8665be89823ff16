#include "obs/flight_recorder.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "util/log.hpp"

namespace hlock::obs {

namespace {

/// "20260806-142233" in UTC. gmtime_r keeps the crash path thread-safe.
std::string utc_stamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y%m%d-%H%M%S", &tm);
  return buf;
}

void write_metrics_section(std::ostringstream& os,
                           const stats::MetricsRegistry& metrics) {
  os << "== metrics snapshot ==\n";
  os << "messages total: " << metrics.messages().total() << '\n';
  for (std::size_t k = 0; k < proto::kMessageKindCount; ++k) {
    const auto kind = static_cast<proto::MessageKind>(k);
    const std::uint64_t count = metrics.messages().count(kind);
    if (count > 0) {
      os << "  " << to_string(kind) << ": " << count << '\n';
    }
  }
  os << "recovery messages: " << metrics.messages().recovery_total()
     << '\n';
  os << "completed requests: " << metrics.latency().count() << '\n';
  os << "messages/request: " << metrics.messages_per_request() << '\n';
  os << "latency (ms): " << to_string(metrics.latency().summarize()) << '\n';
}

void write_span_section(std::ostringstream& os, const SpanCollector& spans) {
  os << "== request spans ==\n";
  os << "spans: " << spans.span_count() << " ("
     << spans.completed_count() << " complete)\n";
  os << render_phase_table(spans.phase_breakdown());
}

void write_ring_section(std::ostringstream& os,
                        const trace::TraceRecorder& recorder) {
  os << "== trace ring ==\n";
  os << "events retained: " << recorder.events().size() << " of "
     << recorder.total_recorded() << " recorded";
  if (recorder.dropped() > 0) {
    os << " (" << recorder.dropped() << " dropped by the ring cap)";
  }
  os << '\n' << recorder.render();
}

}  // namespace

std::string dump_flight_record(const std::string& dir,
                               const std::string& reason,
                               const FlightRecordSources& sources) {
  // Disambiguates dumps within the same second (and same-process reuse).
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);

  try {
    std::filesystem::create_directories(dir);
    const std::string stem =
        "flight-" + utc_stamp() + "-" + std::to_string(n);
    const std::filesystem::path report_path =
        std::filesystem::path(dir) / (stem + ".txt");

    std::ostringstream os;
    os << "hlock flight record\n";
    os << "reason: " << reason << '\n';
    os << "written: " << utc_stamp() << " UTC\n\n";
    if (sources.metrics != nullptr) {
      write_metrics_section(os, *sources.metrics);
      os << '\n';
    }
    if (sources.spans != nullptr) {
      write_span_section(os, *sources.spans);
      os << '\n';
    }

    std::string trace_note;
    if (sources.spans != nullptr && sources.spans->span_count() > 0) {
      const std::filesystem::path trace_path =
          std::filesystem::path(dir) / (stem + ".trace.json");
      std::ofstream trace_out{trace_path};
      trace_out << chrome_trace_json(sources.spans->spans(),
                                     ChromeTraceOptions{sources.node_count});
      if (trace_out.good()) {
        trace_note = trace_path.string();
      }
    }
    if (!trace_note.empty()) {
      os << "chrome trace: " << trace_note << '\n';
    }
    if (sources.recorder != nullptr) {
      write_ring_section(os, *sources.recorder);
    }

    std::ofstream out{report_path};
    out << os.str();
    if (!out.good()) {
      HLOCK_LOG(kWarn, "flight recorder could not write "
                           << report_path.string());
      return "";
    }
    return report_path.string();
  } catch (const std::exception& e) {
    HLOCK_LOG(kWarn, "flight recorder failed: " << e.what());
    return "";
  }
}

}  // namespace hlock::obs
