// Shared helpers for the paper-claim benchmark binaries (C1..C13).
//
// Each bench prints a self-contained report: the claim quoted from the
// paper, the series the experiment produces, and a PASS/SHAPE-note line
// summarizing whether the measured shape matches the claim.
//
// Machine-readable output: every bench's main() starts with
// `benchutil::args(argc, argv)`. With `--json <path>` the run also
// writes a structured report at exit — claim id, recorded series and
// scalar metrics, verdict, pool telemetry (a "par" section:
// utilization, lane-busy imbalance, steal counters), and the PHY
// link-quality probes (EVM, post-equalizer SNR, |LLR|) for benches that
// exercise a receive chain. scripts/run_benches.sh aggregates these into
// BENCH_<tag>.json.
//
// `--json` and `--profile` both arm the hierarchical span profiler
// (obs/perf.h): the whole run executes under a root "bench" span, and
// the hot kernels (FFT, Viterbi, LDPC, fading taps) each open a span
// named after the kernel. The report derives its kernel rows from the
// merged span tree: `kernel_calls.<k>` (a deterministic metric) and
// `kernel_share.<k>` (kernel seconds per wall second, summed over lanes;
// informational). `--profile [path]` also writes the span tree as
// collapsed stacks (flamegraph.pl / speedscope) to `path` — default
// <json>.folded next to the --json report, else profile.folded — plus a
// "spans" array in the JSON, span.* counters in the registry, and
// nested slices appended to the --chrome-trace document when present.
//
// `--chrome-trace <path>` hands the bench a ChromeTraceSink (via
// `chrome_trace()`); simulator benches pass it to their representative
// run so the timeline can be opened in Perfetto / chrome://tracing.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/analyze/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/probe.h"
#include "par/pool.h"

namespace wlan::benchutil {

/// Span names of the instrumented hot kernels, in report order.
inline constexpr const char* kKernelSpans[] = {
    "fft",           "viterbi",    "ldpc_decode", "fading_taps",
    "viterbi_batch", "ldpc_batch", "viterbi_i16", "ldpc_i16"};

/// One recorded (x, y) curve of the experiment.
struct Series {
  std::string name;
  std::string x_label;
  std::string y_label;
  std::vector<double> x;
  std::vector<double> y;
};

/// Accumulated report state for the running bench (one per process).
struct Report {
  std::string json_path;
  std::string id;          // "C1", "EXT", ... — text before ':' in the title
  std::string title;
  std::string claim;
  std::vector<Series> series;
  std::vector<std::pair<std::string, double>> metrics;
  // Informational values ("info" JSON object): wall-clock speedups,
  // utilization — anything machine-dependent that must NOT be pinned by
  // the bench_diff regression gate, which reads "metrics" only.
  std::vector<std::pair<std::string, double>> info;
  bool has_verdict = false;
  bool ok = false;
  std::string verdict_detail;
  obs::Registry registry;  // probe histograms, par.* and span.* live here
  std::string chrome_trace_path;
  std::unique_ptr<obs::ChromeTraceSink> chrome;  // closed by ~Report
  bool latency = false;    // --latency: frame-lifecycle instrumentation on
  std::size_t batch = 0;   // --batch [n]: trial-batched runners, n lanes
  bool quantized = false;  // --quantized: int16 decoder fast paths
  std::size_t overlap = 0; // --overlap [grid]: one-component border city
  bool profile = false;    // --profile: export the span tree
  std::string profile_path;       // folded-stack output ("" = derived)
  obs::perf::SpanProfile spans;   // merged span tree (all threads)
  // Root "bench" span covering args() .. write_report(); its total then
  // tiles (nearly) the process wall time in the folded output.
  std::unique_ptr<obs::perf::ScopedSpan> root_span;
  // Per-sink dropped-event counts, recorded via sink_dropped() once a
  // sink's run is over. Nonzero means trace-derived metrics are skewed;
  // run_benches.sh turns any nonzero total into a MISMATCH.
  std::vector<std::pair<std::string, std::uint64_t>> sinks;
  unsigned jobs = 0;       // worker threads used (resolved --jobs value)
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

inline Report& report() {
  static Report r;
  return r;
}

inline void write_report() {
  Report& r = report();
  // Close the root "bench" span first so it tiles (nearly) the whole
  // wall time, then disarm: nothing below records new spans, and the
  // main thread's collector flushes into r.spans.
  r.root_span.reset();
  obs::perf::disable_span_profiling();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - r.start)
                            .count();

  // Folded collapsed-stack export (flamegraph.pl / speedscope).
  std::string folded_path;
  if (r.profile) {
    folded_path = !r.profile_path.empty() ? r.profile_path
                  : !r.json_path.empty()  ? r.json_path + ".folded"
                                          : std::string("profile.folded");
    std::ofstream fout(folded_path);
    if (!fout.is_open()) {
      std::fprintf(stderr, "benchutil: cannot write %s\n",
                   folded_path.c_str());
    } else {
      r.spans.write_folded(fout);
      std::printf("profile: folded stacks -> %s\n", folded_path.c_str());
    }
  }

  // Pool telemetry, merged into the registry in fixed creation order
  // (par.* counters and gauges). The span profile publishes the same way
  // (span.* counters), keeping snapshots deterministic.
  const par::PoolTelemetry pool = par::default_pool().telemetry();
  const bool telem = par::telemetry_enabled();
  if (telem) par::publish_telemetry(r.registry, pool, wall_s);
  if (r.profile) r.spans.publish(r.registry);

  // Perfetto appendix: span slices + per-lane busy counters ride along
  // in the chrome trace; close it afterwards so dropped() is final.
  if (r.chrome) {
    if (r.profile) obs::append_span_profile(*r.chrome, r.spans);
    if (telem && !pool.lanes.empty()) {
      std::vector<std::pair<std::string, double>> busy;
      busy.reserve(pool.lanes.size());
      for (std::size_t i = 0; i < pool.lanes.size(); ++i) {
        busy.emplace_back("lane" + std::to_string(i),
                          static_cast<double>(pool.lanes[i].busy_ns) * 1e-9);
      }
      r.chrome->emit_counter(obs::kProfilerPid, "par.lane_busy_s", 0.0, busy);
    }
    r.chrome->close();
    r.sinks.emplace_back("chrome_trace", r.chrome->dropped());
  }

  // Hot-kernel rows from the merged span tree, wherever each kernel ran.
  // Call counts are a pure function of seed and config, so the gate pins
  // them; the wall share (kernel seconds per wall second, summed across
  // lanes, so it grows with --jobs) is informational.
  for (const char* kernel : kKernelSpans) {
    const obs::perf::SpanStats st = r.spans.leaf_stats(kernel);
    if (st.calls == 0) continue;
    r.metrics.emplace_back(std::string("kernel_calls.") + kernel,
                           static_cast<double>(st.calls));
    if (wall_s > 0.0) {
      r.info.emplace_back(std::string("kernel_share.") + kernel,
                          static_cast<double>(st.total_ns) * 1e-9 / wall_s);
    }
  }

  if (r.json_path.empty()) return;
  std::ofstream out(r.json_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "benchutil: cannot write %s\n", r.json_path.c_str());
    return;
  }
  using obs::json_escape;
  using obs::json_number;
  out << "{\"schema\":\"holtwlan-bench-v1\"";
  out << ",\"id\":\"" << json_escape(r.id) << '"';
  out << ",\"title\":\"" << json_escape(r.title) << '"';
  out << ",\"claim\":\"" << json_escape(r.claim) << '"';
  out << ",\"verdict\":\""
      << (r.has_verdict ? (r.ok ? "REPRODUCED" : "MISMATCH") : "NONE") << '"';
  out << ",\"ok\":" << (!r.has_verdict || r.ok ? "true" : "false");
  // Wall time and thread count are top-level fields, NOT metrics: the
  // regression gate pins "metrics" only, and wall time is a property of
  // the machine and --jobs, not of the claim.
  out << ",\"jobs\":" << (r.jobs ? r.jobs : par::default_jobs());
  out << ",\"wall_s\":";
  json_number(out, wall_s);
  out << ",\"detail\":\"" << json_escape(r.verdict_detail) << '"';
  out << ",\"series\":[";
  for (std::size_t s = 0; s < r.series.size(); ++s) {
    const Series& ser = r.series[s];
    if (s) out << ',';
    out << "{\"name\":\"" << json_escape(ser.name) << "\",\"x_label\":\""
        << json_escape(ser.x_label) << "\",\"y_label\":\""
        << json_escape(ser.y_label) << "\",\"x\":[";
    for (std::size_t i = 0; i < ser.x.size(); ++i) {
      if (i) out << ',';
      json_number(out, ser.x[i]);
    }
    out << "],\"y\":[";
    for (std::size_t i = 0; i < ser.y.size(); ++i) {
      if (i) out << ',';
      json_number(out, ser.y[i]);
    }
    out << "]}";
  }
  out << "],\"probes\":[";
  {
    bool first_probe = true;
    for (std::size_t p = 0; p < obs::kProbeCount; ++p) {
      const auto probe = static_cast<obs::Probe>(p);
      const std::vector<obs::Label> label{
          {"chain", obs::probe_chain_label(probe)}};
      const obs::Histogram* h =
          r.registry.find_histogram(obs::probe_metric_name(probe), label);
      if (!h || h->count() == 0) continue;
      if (!first_probe) out << ',';
      first_probe = false;
      out << "{\"name\":\"" << obs::probe_metric_name(probe)
          << "\",\"chain\":\"" << obs::probe_chain_label(probe)
          << "\",\"count\":" << h->count() << ",\"mean\":";
      json_number(out, h->mean());
      out << ",\"p50\":";
      json_number(out, h->percentile(50.0));
      out << ",\"p90\":";
      json_number(out, h->percentile(90.0));
      out << ",\"min\":";
      json_number(out, h->min());
      out << ",\"max\":";
      json_number(out, h->max());
      out << '}';
    }
  }
  out << "],\"sinks\":[";
  {
    std::uint64_t total_dropped = 0;
    for (std::size_t i = 0; i < r.sinks.size(); ++i) {
      if (i) out << ',';
      out << "{\"name\":\"" << json_escape(r.sinks[i].first)
          << "\",\"dropped\":" << r.sinks[i].second << '}';
      total_dropped += r.sinks[i].second;
    }
    out << "],\"sink_dropped\":" << total_dropped;
  }
  out << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(r.metrics[i].first) << "\":";
    json_number(out, r.metrics[i].second);
  }
  out << "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(r.info[i].first) << "\":";
    json_number(out, r.info[i].second);
  }
  out << '}';
  if (telem) {
    const par::LaneTelemetry tot = pool.totals();
    // Chunk count and mean from the Monte-Carlo chunk spans, which are
    // armed whenever telemetry is.
    obs::perf::SpanStats chunks = r.spans.leaf_stats("mc.chunk");
    chunks.add(r.spans.leaf_stats("mc.map"));
    out << ",\"par\":{\"lanes\":" << pool.lanes.size()
        << ",\"tasks\":" << tot.tasks
        << ",\"steal_attempts\":" << tot.steal_attempts
        << ",\"steal_successes\":" << tot.steal_successes
        << ",\"help_iterations\":" << tot.help_iterations << ",\"busy_s\":";
    json_number(out, static_cast<double>(tot.busy_ns) * 1e-9);
    out << ",\"park_s\":";
    json_number(out, static_cast<double>(tot.park_ns) * 1e-9);
    out << ",\"utilization\":";
    json_number(out, pool.utilization(wall_s));
    out << ",\"imbalance\":";
    json_number(out, pool.imbalance());
    out << ",\"chunks\":" << chunks.calls << ",\"chunk_mean_s\":";
    json_number(out, chunks.calls != 0
                         ? static_cast<double>(chunks.total_ns) * 1e-9 /
                               static_cast<double>(chunks.calls)
                         : 0.0);
    out << ",\"lane_busy_s\":[";
    for (std::size_t i = 0; i < pool.lanes.size(); ++i) {
      if (i) out << ',';
      json_number(out, static_cast<double>(pool.lanes[i].busy_ns) * 1e-9);
    }
    out << "]}";
  }
  if (r.profile) {
    out << ",\"spans\":[";
    bool first_span = true;
    for (const auto& [path, st] : r.spans.spans()) {
      if (!first_span) out << ',';
      first_span = false;
      out << "{\"path\":\"" << json_escape(path)
          << "\",\"calls\":" << st.calls << ",\"total_s\":";
      json_number(out, static_cast<double>(st.total_ns) * 1e-9);
      out << ",\"self_s\":";
      json_number(out, static_cast<double>(st.self_ns()) * 1e-9);
      out << ",\"allocs\":" << st.allocs << '}';
    }
    out << "],\"profile_folded\":\"" << json_escape(folded_path) << '"';
  }
  out << "}\n";
}

/// Parses bench CLI flags: `--json <path>` (write the structured report
/// there; also arms the span profiler, pool telemetry, and the PHY
/// probes), `--profile [path]` (arm the span profiler; write collapsed
/// stacks to `path`, default <json>.folded or profile.folded),
/// `--chrome-trace <path>` (arm `chrome_trace()`
/// with a ChromeTraceSink writing there), `--jobs <n>` (worker lanes
/// for the Monte-Carlo pool; default hardware_concurrency, 1 = fully
/// serial; results are identical either way), and `--latency` (arm the
/// frame-lifecycle instrumentation; see latency()). Call first thing in
/// main().
inline void args(int argc, char** argv) {
  Report& r = report();
  r.start = std::chrono::steady_clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      r.json_path = argv[++i];
    } else if (a == "--chrome-trace" && i + 1 < argc) {
      r.chrome_trace_path = argv[++i];
    } else if (a == "--jobs" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      r.jobs = n > 0 ? static_cast<unsigned>(n) : 0;
      par::set_default_jobs(r.jobs);
    } else if (a == "--profile") {
      r.profile = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') r.profile_path = argv[++i];
    } else if (a == "--latency") {
      r.latency = true;
    } else if (a == "--batch") {
      r.batch = 8;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const long n = std::strtol(argv[++i], nullptr, 10);
        if (n < 1 || n > 16) {
          std::fprintf(stderr, "--batch lanes must be 1..16\n");
          std::exit(2);
        }
        r.batch = static_cast<std::size_t>(n);
      }
    } else if (a == "--quantized") {
      r.quantized = true;
    } else if (a == "--overlap") {
      r.overlap = 32;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const long n = std::strtol(argv[++i], nullptr, 10);
        if (n < 2) {
          std::fprintf(stderr, "--overlap grid must be >= 2\n");
          std::exit(2);
        }
        r.overlap = static_cast<std::size_t>(n);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--chrome-trace <path>] "
                   "[--profile [path]] [--latency] [--jobs <n>] "
                   "[--batch [lanes]] [--quantized] [--overlap [grid]]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  // Arm span profiling BEFORE registering write_report: arming creates
  // the process-wide collector arena, and later-registered exit handlers
  // run first — write_report can then still close the root span and
  // drain the main thread's collector.
  if (!r.json_path.empty() || r.profile) {
    obs::perf::enable_span_profiling(r.spans);
    r.root_span = std::make_unique<obs::perf::ScopedSpan>("bench");
    par::set_telemetry_enabled(true);
    std::atexit(write_report);
  }
  if (!r.json_path.empty()) obs::enable_phy_probes(r.registry);
}

/// True when --latency was given: simulator benches then enable the
/// frame-lifecycle instrumentation (NetworkConfig::lifecycle) on their
/// representative runs and report delay percentiles, the windowed time
/// series, and the invariant-auditor breach count in --json output.
inline bool latency() { return report().latency; }

/// Lane count from --batch (0 = batching off): link benches that support
/// trial batching then switch to the *_batched runners. The batched
/// double path is bitwise identical to the scalar runners, so series and
/// metrics are unchanged — only wall time moves.
inline std::size_t batch_lanes() { return report().batch; }

/// True when --quantized was given: batched benches then also run the
/// int16 decoder fast paths on paired seeds and report the worst PER
/// delta against the double path (the bench_diff gate metric).
inline bool quantized() { return report().quantized; }

/// Building-grid side from --overlap (0 = overlap mode off; bare
/// --overlap means the full 32x32 grid = 102,400 nodes). bench_city
/// then runs ONE connected component through the conservative-time
/// border exchange instead of disjoint per-building shards.
inline std::size_t overlap_grid() { return report().overlap; }

/// Records an informational value into the JSON report's "info" object.
/// Use for wall-clock-derived numbers (speedups, utilization): they are
/// visible to scripts but invisible to the bench_diff regression gate,
/// which pins "metrics" only.
inline void info(std::string name, double value) {
  report().info.emplace_back(std::move(name), value);
}

/// Records a trace sink's final dropped() count under `name` in the
/// --json report ("sinks" array + "sink_dropped" total). Call once per
/// sink after its run completes; the --chrome-trace sink is recorded
/// automatically.
inline void sink_dropped(std::string name, std::uint64_t dropped) {
  report().sinks.emplace_back(std::move(name), dropped);
}

/// The --chrome-trace sink (created on first use), or null when the flag
/// was not given — pass straight into NetworkConfig::trace /
/// DcfConfig::trace for the bench's representative run. The sink closes
/// (balancing spans and finishing the JSON document) at process exit.
inline obs::TraceSink* chrome_trace() {
  Report& r = report();
  if (r.chrome_trace_path.empty()) return nullptr;
  if (!r.chrome) {
    r.chrome = std::make_unique<obs::ChromeTraceSink>(r.chrome_trace_path);
  }
  return r.chrome.get();
}

inline void title(const char* id, const char* claim) {
  Report& r = report();
  r.title = id;
  r.claim = claim;
  const std::string t = id;
  const std::size_t colon = t.find(':');
  r.id = colon == std::string::npos ? t : t.substr(0, colon);
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", id);
  std::printf("claim: %s\n", claim);
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
}

inline void section(const char* name) { std::printf("\n-- %s --\n", name); }

/// Records a curve into the JSON report (printing stays with the bench).
inline void series(std::string name, std::string x_label,
                   std::vector<double> xs, std::string y_label,
                   std::vector<double> ys) {
  report().series.push_back(Series{std::move(name), std::move(x_label),
                                   std::move(y_label), std::move(xs),
                                   std::move(ys)});
}

/// Records one scalar result into the JSON report.
inline void metric(std::string name, double value) {
  report().metrics.emplace_back(std::move(name), value);
}

inline void verdict(bool ok, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char detail[1024];
  std::vsnprintf(detail, sizeof detail, fmt, args);
  va_end(args);
  Report& r = report();
  r.has_verdict = true;
  r.ok = ok;
  r.verdict_detail = detail;
  std::printf("\n[%s] %s\n\n", ok ? "REPRODUCED" : "MISMATCH", detail);
}

/// Linear interpolation of the x where series y crosses `target`
/// (y assumed monotone along x). An exact hit (ys[i] == target, including
/// a flat run at the target or a hit on the first/last sample) returns
/// the first such x. Returns NaN if no crossing.
inline double crossing(const std::vector<double>& xs,
                       const std::vector<double>& ys, double target) {
  for (std::size_t i = 0; i < ys.size(); ++i) {
    if (ys[i] == target) return xs[i];
    if (i + 1 >= ys.size()) break;
    const bool between = (ys[i] - target) * (ys[i + 1] - target) < 0.0;
    if (!between) continue;
    const double t = (target - ys[i]) / (ys[i + 1] - ys[i]);
    return xs[i] + t * (xs[i + 1] - xs[i]);
  }
  return std::nan("");
}

}  // namespace wlan::benchutil
