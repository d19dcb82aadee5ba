// Shared helpers for the open-loop controller benchmark: clocks, sample
// summaries, process accounting and the bench-side span recorder.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline std::int64_t now_us() { return now_ns() / 1000; }

/// Linear-interpolated quantile (the "exclusive" rank q*(n-1)); 0 when
/// empty. Takes a copy so callers keep their raw samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// User + system CPU of the whole process, in microseconds.
inline double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU of the calling thread, in microseconds.
inline double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Peak resident set of the process, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Bench-side spans around calls into the system's layers, kept in memory
/// and written out as Chrome trace_event JSON at exit. Spans of one demand
/// share its trace id; `parent` links a span to the span that caused it.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t ts_us;
    std::int64_t dur_us;
    std::uint64_t trace_id;
    std::uint64_t span_id;
    std::uint64_t parent;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(const char* name, std::int64_t ts_us, std::int64_t dur_us,
                    std::uint64_t trace_id, std::uint64_t parent = 0) {
    if (!enabled_) return 0;
    const std::uint64_t id = ++next_id_;
    spans_.push_back(Span{name, ts_us, dur_us, trace_id, id, parent});
    return id;
  }

  std::size_t size() const { return spans_.size(); }

  std::string chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\":\"";
      out += s.name;
      out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
      out += std::to_string(s.ts_us);
      out += ",\"dur\":";
      out += std::to_string(s.dur_us);
      out += ",\"args\":{\"trace_id\":";
      out += std::to_string(s.trace_id);
      out += ",\"span_id\":";
      out += std::to_string(s.span_id);
      out += ",\"parent\":";
      out += std::to_string(s.parent);
      out += "}}";
    }
    out += "]}\n";
    return out;
  }

 private:
  bool enabled_ = false;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span into a SpanLog; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t trace_id = 0,
             std::uint64_t parent = 0)
      : log_(log), name_(name), trace_(trace_id), parent_(parent),
        t0_(log.enabled() ? now_us() : 0) {}
  ~ScopedSpan() {
    if (log_.enabled()) log_.add(name_, t0_, now_us() - t0_, trace_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t trace_;
  std::uint64_t parent_;
  std::int64_t t0_;
};

/// Named metric values in print order.
using MetricList = std::vector<std::pair<std::string, double>>;

}  // namespace perfbench
