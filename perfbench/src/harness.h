// Shared pieces of the repository benchmark: command-line options, the
// benchmark's own span recorder, result accumulation, and small timing
// and memory helpers.
//
// Spans are recorded from the benchmark's call sites only — one span per
// call into a library module (name, start, end, parent, run id). They
// stay in memory and are written as JSON lines when the workload ends.
// The library's own obs::perf profiler is a separate, optional source
// that the traced run arms around its traced pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/perf.h"

namespace perfbench {

enum class Size { kFull, kShort };

struct Options {
  std::string workload;
  std::uint64_t seed = 11;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  unsigned jobs = 1;       ///< worker lanes (nproc)
  std::string trace_out;   ///< JSON-lines span file ("" = not written)
};

/// Monotonic seconds.
double now_s();

/// Peak resident set of this process so far (MB): VmHWM from
/// /proc/self/status, getrusage where that is unavailable.
double peak_rss_mb();

double median(std::vector<double> values);

/// The benchmark's own span recorder. A Scope always measures its
/// duration (callers use it for metrics); only when tracing is on does
/// it also append a span.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts a new run id; spans opened afterwards carry it.
  void next_run() { ++run_; }
  std::uint32_t run() const { return run_; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened.
    double elapsed_s() const;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
    std::uint64_t start_ns_ = 0;
  };

  /// Summed duration of the spans named `name` in run `run` (s).
  double total_s(const std::string& name, std::uint32_t run) const;
  /// Writes one JSON object per span; false when the file cannot be
  /// opened.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
    std::uint32_t run = 0;
  };

  bool on_;
  std::uint32_t run_ = 0;
  std::int64_t open_ = -1;
  std::vector<Span> spans_;
};

/// What a workload reports: timed calls attempted and failed, and its
/// metrics in print order.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void call(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// A flat JSON object built field by field, for the informational
/// lines printed ahead of the result line.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const std::vector<double>& values);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Prints {"<tag>": <object>} as one stdout line.
void print_line(const std::string& tag, const JsonObject& object);

/// Arms the library's span profiler and pool telemetry for one traced
/// pass, and reads back what they recorded.
class LibraryProfile {
 public:
  LibraryProfile();
  ~LibraryProfile();
  LibraryProfile(const LibraryProfile&) = delete;
  LibraryProfile& operator=(const LibraryProfile&) = delete;

  /// Disarms and freezes the readings; `wall_s` is the traced pass's
  /// wall time, the base of the pool utilization.
  void stop(double wall_s);
  /// Summed self time of every span whose leaf name is `leaf` (s).
  double self_s(const std::string& leaf) const;
  /// Appends the phy/dsp/channel kernel span self times.
  void add_kernel_metrics(Outcome& out) const;
  /// Appends the par.* pool metrics.
  void add_pool_metrics(Outcome& out) const;

 private:
  wlan::obs::perf::SpanProfile profile_;
  bool armed_ = true;
  double utilization_ = 0.0;
  double imbalance_ = 0.0;
  double tasks_ = 0.0;
  double steals_ = 0.0;
  double park_s_ = 0.0;
};

Outcome run_phy_link(const Options& opt, Tracer& tracer);
Outcome run_city_shards(const Options& opt, Tracer& tracer);
Outcome run_city_border(const Options& opt, Tracer& tracer);

}  // namespace perfbench
