// Tests for the hierarchical span profiler (obs/perf.h) and the
// parallel-engine telemetry (par/pool.h): self/child time attribution,
// folded-stack round trips, cross-thread-count determinism of merged
// profiles, pool counter reconciliation, and per-span allocation
// attribution via the test alloc hook.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/analyze/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "par/montecarlo.h"
#include "par/pool.h"
#include "support/alloc_hook.h"

namespace wlan {
namespace {

using obs::perf::ScopedSpan;
using obs::perf::SpanProfile;
using obs::perf::SpanStats;

// Deterministic tick source: every call advances this thread's clock by
// 100 ns. Span durations are tick differences, so a span's time is 100x
// the number of now_ns() calls it encloses — a pure function of the
// span structure, independent of which thread runs it.
thread_local std::uint64_t t_tick = 0;
std::uint64_t fake_tick() { return t_tick += 100; }

std::uint64_t thread_allocs() {
  return static_cast<std::uint64_t>(testsupport::thread_allocation_count());
}

// Restores the global profiler state no matter how a test exits.
class PerfGuard {
 public:
  PerfGuard() = default;
  ~PerfGuard() {
    obs::perf::disable_span_profiling();
    obs::perf::set_tick_source_for_testing(nullptr);
    obs::perf::set_alloc_source(nullptr);
    par::set_telemetry_enabled(false);
  }
};

TEST(ScopedSpan, DisabledRecordsNothing) {
  PerfGuard guard;
  obs::perf::disable_span_profiling();
  { const ScopedSpan span("nothing"); }
  EXPECT_FALSE(obs::perf::span_profiling_enabled());
  EXPECT_EQ(obs::perf::current_path(), "");
}

TEST(ScopedSpan, NestingSplitsSelfAndChildTime) {
  PerfGuard guard;
  obs::perf::set_tick_source_for_testing(&fake_tick);
  SpanProfile profile;
  obs::perf::enable_span_profiling(profile);
  {
    const ScopedSpan a("a");  // tick 1 .. tick 6
    { const ScopedSpan b("b"); }  // ticks 2..3
    { const ScopedSpan b("b"); }  // ticks 4..5
  }
  obs::perf::disable_span_profiling();

  const auto rows = profile.spans();
  ASSERT_EQ(rows.count("a"), 1u);
  ASSERT_EQ(rows.count("a;b"), 1u);
  const SpanStats& a = rows.at("a");
  const SpanStats& b = rows.at("a;b");
  EXPECT_EQ(a.calls, 1u);
  EXPECT_EQ(a.total_ns, 500u);  // 5 intervening tick steps
  EXPECT_EQ(b.calls, 2u);
  EXPECT_EQ(b.total_ns, 200u);
  EXPECT_EQ(a.child_ns, 200u);
  EXPECT_EQ(a.self_ns(), 300u);
  // Children tile the parent exactly: self + child == total.
  EXPECT_EQ(a.self_ns() + a.child_ns, a.total_ns);
}

TEST(ScopedSpan, CurrentPathTracksOpenStack) {
  PerfGuard guard;
  SpanProfile profile;
  obs::perf::enable_span_profiling(profile);
  EXPECT_EQ(obs::perf::current_path(), "");
  {
    const ScopedSpan a("outer");
    EXPECT_EQ(obs::perf::current_path(), "outer");
    {
      const ScopedSpan b("inner");
      EXPECT_EQ(obs::perf::current_path(), "outer;inner");
    }
    EXPECT_EQ(obs::perf::current_path(), "outer");
  }
  EXPECT_EQ(obs::perf::current_path(), "");
  obs::perf::disable_span_profiling();
}

TEST(ScopedSpan, FlushKeepsArmingAndAccumulates) {
  PerfGuard guard;
  obs::perf::set_tick_source_for_testing(&fake_tick);
  SpanProfile profile;
  obs::perf::enable_span_profiling(profile);
  { const ScopedSpan s("s"); }
  obs::perf::flush_span_profiling();
  EXPECT_EQ(profile.spans().at("s").calls, 1u);
  EXPECT_TRUE(obs::perf::span_profiling_enabled());
  { const ScopedSpan s("s"); }
  obs::perf::disable_span_profiling();
  EXPECT_EQ(profile.spans().at("s").calls, 2u);
}

TEST(SpanProfile, RootTotalSumsDepthZeroRowsOnly) {
  SpanProfile profile;
  SpanStats s;
  s.calls = 1;
  s.total_ns = 300;
  profile.add("a", s);
  s.total_ns = 200;
  profile.add("b", s);
  s.total_ns = 150;
  profile.add("a;c", s);  // depth 1: excluded
  EXPECT_EQ(profile.root_total_ns(), 500u);
}

// Bench kernel rows: a kernel counts wherever it ran, matched on the
// whole last path component only.
TEST(SpanProfile, LeafStatsSumsRowsEndingInName) {
  SpanProfile profile;
  SpanStats s;
  s.calls = 1;
  s.total_ns = 10;
  for (const char* path :
       {"a;viterbi", "b;c;viterbi", "viterbi_batch", "x;viterbi_i16",
        "viterbi;fft"}) {
    profile.add(path, s);
  }
  EXPECT_EQ(profile.leaf_stats("viterbi").calls, 2u);
  EXPECT_EQ(profile.leaf_stats("viterbi").total_ns, 20u);
  EXPECT_EQ(profile.leaf_stats("viterbi_batch").calls, 1u);
  EXPECT_EQ(profile.leaf_stats("viterbi_i16").calls, 1u);
  EXPECT_EQ(profile.leaf_stats("fft").calls, 1u);
  EXPECT_EQ(profile.leaf_stats("ldpc_decode").calls, 0u);
}

TEST(SpanProfile, FoldedRoundTrip) {
  SpanProfile profile;
  SpanStats s;
  s.calls = 2;
  s.total_ns = 700;
  s.child_ns = 250;
  profile.add("bench;link.ofdm", s);
  SpanStats leaf;
  leaf.calls = 8;
  leaf.total_ns = 250;
  profile.add("bench;link.ofdm;fft", leaf);

  std::stringstream ss(profile.folded());
  const auto lines = obs::perf::parse_folded(ss);
  ASSERT_EQ(lines.size(), 2u);
  // Sorted path order.
  EXPECT_EQ(lines[0].path, "bench;link.ofdm");
  EXPECT_EQ(lines[0].self_ns, 450u);
  EXPECT_EQ(lines[1].path, "bench;link.ofdm;fft");
  EXPECT_EQ(lines[1].self_ns, 250u);
}

TEST(SpanProfile, ParseFoldedRejectsMalformedLines) {
  std::stringstream no_space("justapath\n");
  EXPECT_THROW(obs::perf::parse_folded(no_space), ContractError);
  std::stringstream bad_count("a;b not_a_number\n");
  EXPECT_THROW(obs::perf::parse_folded(bad_count), ContractError);
  std::stringstream empty_path(" 123\n");
  EXPECT_THROW(obs::perf::parse_folded(empty_path), ContractError);
  std::stringstream ok("a;b 123\n\na 7\n");
  EXPECT_EQ(obs::perf::parse_folded(ok).size(), 2u);
}

// The cross-thread-count determinism contract: span durations under the
// injected per-thread tick depend only on the span structure inside
// each chunk, so the merged profile — and a registry snapshot published
// from it — is bitwise identical for any --jobs.
TEST(SpanProfile, MergedProfileIdenticalAcrossJobs) {
  PerfGuard guard;
  obs::perf::set_tick_source_for_testing(&fake_tick);

  const auto run = [](unsigned jobs) {
    SpanProfile profile;
    obs::perf::enable_span_profiling(profile);
    par::SweepOptions opt;
    opt.jobs = jobs;
    opt.chunk = 4;
    const double sum = par::montecarlo<double>(
        64, 0, opt,
        [](std::uint64_t, std::size_t, Rng& rng, double& acc) {
          const ScopedSpan span("trial");
          acc += rng.uniform();
        },
        [](double& acc, const double& part) { acc += part; });
    obs::perf::disable_span_profiling();
    obs::Registry registry;
    profile.publish(registry);
    return std::make_pair(sum, registry.snapshot_json());
  };

  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.first, parallel.first);       // MC results bitwise equal
  EXPECT_EQ(serial.second, parallel.second);     // profile snapshots too

  const obs::JsonValue doc = obs::JsonValue::parse(serial.second);
  (void)doc;  // snapshot parses as JSON
}

// Worker chunk spans graft under the caller's open span path captured
// before fan-out.
TEST(SpanProfile, ChunkSpansGraftUnderCallerPath) {
  PerfGuard guard;
  SpanProfile profile;
  obs::perf::enable_span_profiling(profile);
  {
    const ScopedSpan outer("outer");
    par::SweepOptions opt;
    opt.jobs = 2;
    opt.chunk = 4;
    par::montecarlo<double>(
        16, 0, opt,
        [](std::uint64_t, std::size_t, Rng&, double& acc) {
          const ScopedSpan span("trial");
          acc += 1.0;
        },
        [](double& acc, const double& part) { acc += part; });
  }
  obs::perf::disable_span_profiling();

  const auto rows = profile.spans();
  ASSERT_EQ(rows.count("outer"), 1u);
  ASSERT_EQ(rows.count("outer;mc.chunk"), 1u);
  ASSERT_EQ(rows.count("outer;mc.chunk;trial"), 1u);
  EXPECT_EQ(rows.at("outer;mc.chunk").calls, 4u);
  EXPECT_EQ(rows.at("outer;mc.chunk;trial").calls, 16u);
}

// The "mc.chunk" spans are the chunk instrument: one span per chunk,
// reconciled against the pool's task counter (one task per chunk).
TEST(PoolTelemetry, CountersReconcileWithChunkSpans) {
  PerfGuard guard;
  SpanProfile profile;
  obs::perf::enable_span_profiling(profile);
  par::set_telemetry_enabled(true);
  par::default_pool().reset_telemetry();

  par::SweepOptions opt;
  opt.chunk = 5;
  const double total = par::montecarlo<double>(
      40, 0, opt,
      [](std::uint64_t, std::size_t, Rng&, double& acc) { acc += 1.0; },
      [](double& acc, const double& part) { acc += part; });
  EXPECT_DOUBLE_EQ(total, 40.0);
  obs::perf::disable_span_profiling();

  EXPECT_EQ(profile.leaf_stats("mc.chunk").calls, 8u);  // 40 trials / 5

  // Every chunk ran as exactly one pool task (parallel_for chunk == 1),
  // on a worker lane or the external-caller lane.
  const par::PoolTelemetry pool = par::default_pool().telemetry();
  EXPECT_EQ(pool.lanes.size(), par::default_pool().size());
  EXPECT_EQ(pool.totals().tasks, 8u);
  EXPECT_GT(pool.totals().busy_ns, 0u);
  par::set_telemetry_enabled(false);
}

TEST(PoolTelemetry, UtilizationAndImbalanceMath) {
  par::PoolTelemetry t;
  EXPECT_EQ(t.utilization(1.0), 0.0);
  EXPECT_EQ(t.imbalance(), 0.0);
  t.lanes.resize(2);
  t.lanes[0].busy_ns = 1'000'000'000;  // 1 s
  t.lanes[1].busy_ns = 500'000'000;    // 0.5 s
  // 1.5 busy-seconds over 2 lanes x 1 s wall.
  EXPECT_NEAR(t.utilization(1.0), 0.75, 1e-12);
  EXPECT_EQ(t.utilization(0.0), 0.0);
  // max / mean = 1.0 / 0.75.
  EXPECT_NEAR(t.imbalance(), 4.0 / 3.0, 1e-12);
  EXPECT_EQ(t.totals().busy_ns, 1'500'000'000u);
}

TEST(PoolTelemetry, PublishCreatesParInstruments) {
  par::PoolTelemetry t;
  t.lanes.resize(2);
  t.lanes[0].tasks = 3;
  t.lanes[1].tasks = 5;
  t.lanes[0].busy_ns = 400;
  obs::Registry registry;
  par::publish_telemetry(registry, t, 2.0);
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("par.tasks"), std::string::npos);
  EXPECT_NE(json.find("par.utilization"), std::string::npos);
  EXPECT_NE(json.find("par.imbalance"), std::string::npos);
  const obs::JsonValue doc = obs::JsonValue::parse(json);
  (void)doc;
}

// Per-span allocation attribution through the injected per-thread
// counter: the inner span's allocations roll up into the outer span's
// child_allocs, leaving its self_allocs at zero.
TEST(SpanAllocs, InnerAllocationsAttributeToInnerSpan) {
  PerfGuard guard;
  // Warm pass creates the collector nodes so the measured pass is pure.
  SpanProfile warm;
  obs::perf::enable_span_profiling(warm);
  {
    const ScopedSpan o("o");
    { const ScopedSpan i("i"); }
  }
  SpanProfile measured;
  obs::perf::enable_span_profiling(measured);  // drains into warm, re-arms
  obs::perf::set_alloc_source(&thread_allocs);
  {
    const ScopedSpan o("o");
    {
      const ScopedSpan i("i");
      std::vector<int> v(64, 1);
      ASSERT_EQ(v[63], 1);
    }
  }
  obs::perf::disable_span_profiling();
  obs::perf::set_alloc_source(nullptr);

  const auto rows = measured.spans();
  EXPECT_GE(rows.at("o;i").allocs, 1u);
  EXPECT_EQ(rows.at("o").child_allocs, rows.at("o;i").allocs);
  EXPECT_EQ(rows.at("o").self_allocs(), 0u);
}

// Warm Monte-Carlo chunks are allocation-free: after a warm-up sweep
// has built every collector node and workspace, a second identical
// sweep records zero allocations inside every mc.chunk span.
TEST(SpanAllocs, WarmMonteCarloChunksDoNotAllocate) {
  PerfGuard guard;
  obs::perf::set_alloc_source(&thread_allocs);
  const auto sweep_once = [](SpanProfile& profile) {
    obs::perf::enable_span_profiling(profile);
    par::SweepOptions opt;
    opt.chunk = 8;
    par::montecarlo<double>(
        64, 0, opt,
        [](std::uint64_t, std::size_t, Rng& rng, double& acc) {
          acc += rng.uniform();
        },
        [](double& acc, const double& part) { acc += part; });
  };
  SpanProfile warm;
  sweep_once(warm);
  SpanProfile measured;
  sweep_once(measured);  // re-arm drains the warm pass first
  obs::perf::disable_span_profiling();
  obs::perf::set_alloc_source(nullptr);

  bool saw_chunk = false;
  for (const auto& [path, stats] : measured.spans()) {
    if (path.find("mc.chunk") == std::string::npos) continue;
    saw_chunk = true;
    EXPECT_EQ(stats.allocs, 0u) << path;
  }
  EXPECT_TRUE(saw_chunk);
}

// Perfetto appendix: the span tree lands as complete slices on the
// synthetic profiler process and the document stays valid JSON.
TEST(ChromeTrace, AppendSpanProfileEmitsSlices) {
  SpanProfile profile;
  SpanStats s;
  s.calls = 1;
  s.total_ns = 1000;
  s.child_ns = 400;
  profile.add("bench", s);
  SpanStats child;
  child.calls = 2;
  child.total_ns = 400;
  profile.add("bench;fft", child);

  std::stringstream ss;
  {
    obs::ChromeTraceSink sink(ss);
    obs::append_span_profile(sink, profile);
    sink.close();
    EXPECT_EQ(sink.dropped(), 0u);
  }
  const obs::JsonValue doc = obs::JsonValue::parse(ss.str());
  const obs::JsonValue& events = doc.at("traceEvents");
  bool saw_meta = false, saw_bench = false, saw_fft = false;
  for (const auto& e : events.items()) {
    const obs::JsonValue* name = e.find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (name->as_string() == "process_name") saw_meta = true;
    if (name->as_string() == "bench") saw_bench = true;
    if (name->as_string() == "fft") saw_fft = true;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_bench);
  EXPECT_TRUE(saw_fft);
}

}  // namespace
}  // namespace wlan
