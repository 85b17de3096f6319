// Tests for the observability layer: metrics registry, trace sinks,
// scheduler instrumentation, and reconciliation of the network
// simulator's trace stream against its counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/netsim.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

namespace wlan {
namespace {

// ---- sim::Tally / sim::TimeAverage edge cases ----

TEST(Tally, EmptyIsAllZero) {
  sim::Tally t;
  EXPECT_EQ(t.count(), 0u);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
  EXPECT_DOUBLE_EQ(t.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(t.min(), 0.0);
  EXPECT_DOUBLE_EQ(t.max(), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Tally, SingleSampleHasZeroVariance) {
  sim::Tally t;
  t.add(-3.5);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_DOUBLE_EQ(t.mean(), -3.5);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
  EXPECT_DOUBLE_EQ(t.min(), -3.5);
  EXPECT_DOUBLE_EQ(t.max(), -3.5);
}

TEST(Tally, KnownMomentsAndExtremes) {
  sim::Tally t;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) t.add(x);
  EXPECT_EQ(t.count(), 8u);
  EXPECT_DOUBLE_EQ(t.mean(), 5.0);
  EXPECT_DOUBLE_EQ(t.total(), 40.0);
  // Sample variance of the classic dataset: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(t.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.min(), 2.0);
  EXPECT_DOUBLE_EQ(t.max(), 9.0);
}

TEST(TimeAverage, FirstUpdateOnlyStartsTheClock) {
  sim::TimeAverage a;
  a.update(5.0, 3.0);
  // Zero elapsed span: average falls back to the current value.
  EXPECT_DOUBLE_EQ(a.average(), 3.0);
  EXPECT_DOUBLE_EQ(a.integral(), 0.0);
}

TEST(TimeAverage, PiecewiseConstantSignal) {
  sim::TimeAverage a;
  a.update(0.0, 2.0);   // value 2 over [0, 4)
  a.update(4.0, 10.0);  // value 10 over [4, 6)
  a.update(6.0, 0.0);
  EXPECT_DOUBLE_EQ(a.integral(), 2.0 * 4.0 + 10.0 * 2.0);
  EXPECT_DOUBLE_EQ(a.average(), 28.0 / 6.0);
}

TEST(TimeAverage, ZeroLengthSegmentsAreHarmless) {
  sim::TimeAverage a;
  a.update(1.0, 5.0);
  a.update(1.0, 7.0);  // same timestamp: replaces the value, adds nothing
  a.update(2.0, 0.0);
  EXPECT_DOUBLE_EQ(a.integral(), 7.0);
}

TEST(TimeAverage, OutOfOrderUpdateThrows) {
  sim::TimeAverage a;
  a.update(2.0, 1.0);
  EXPECT_THROW(a.update(1.0, 1.0), ContractError);
}

// ---- obs::Histogram ----

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(obs::Histogram(0.0, 1.0, 8), ContractError);
  EXPECT_THROW(obs::Histogram(-1.0, 1.0, 8), ContractError);
  EXPECT_THROW(obs::Histogram(1.0, 1.0, 8), ContractError);
  EXPECT_THROW(obs::Histogram(1e-3, 1.0, 0), ContractError);
}

TEST(Histogram, EmptyHistogram) {
  obs::Histogram h(1e-3, 1.0, 16);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_TRUE(std::isnan(h.percentile(50.0)));
}

TEST(Histogram, ExactMomentsWithApproximateBins) {
  obs::Histogram h(1e-3, 1e3, 32);
  for (const double x : {0.01, 0.1, 1.0, 10.0, 100.0}) h.record(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 111.11);
  EXPECT_DOUBLE_EQ(h.mean(), 111.11 / 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.01);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, UnderflowAndOverflowBuckets) {
  obs::Histogram h(1.0, 10.0, 4);
  h.record(0.0);    // non-positive -> underflow
  h.record(-5.0);   // non-positive -> underflow
  h.record(0.5);    // below lo -> underflow
  h.record(10.0);   // hi is exclusive -> overflow
  h.record(1e6);    // far above -> overflow
  h.record(3.0);    // interior
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 2u);
  std::uint64_t interior = 0;
  for (std::size_t i = 0; i < h.bins(); ++i) interior += h.bin_count(i);
  EXPECT_EQ(interior, 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
}

TEST(Histogram, EdgesAreLogSpacedAndContiguous) {
  obs::Histogram h(1e-2, 1e2, 4);
  // Four bins over four decades: each bin spans one decade.
  for (std::size_t i = 0; i < h.bins(); ++i) {
    EXPECT_NEAR(h.lower_edge(i), std::pow(10.0, -2.0 + static_cast<double>(i)),
                1e-9);
    EXPECT_DOUBLE_EQ(h.upper_edge(i), h.lower_edge(i + 1));
  }
  EXPECT_NEAR(h.upper_edge(h.bins() - 1), 1e2, 1e-9);
}

TEST(Histogram, RecordLandsInTheRightBin) {
  obs::Histogram h(1e-2, 1e2, 4);
  h.record(0.5);  // decade [0.1, 1) -> bin 1
  EXPECT_EQ(h.bin_count(1), 1u);
  h.record(50.0);  // decade [10, 100) -> bin 3
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Histogram, PercentilesClampToObservedExtremes) {
  obs::Histogram h(1e-3, 1e3, 64);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 0.1);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100.0), h.max());
  // Percentiles are monotone and bracket the true quantiles to within a
  // bin width (log-spaced 64 bins over six decades: ~24% wide).
  double prev = h.percentile(0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_NEAR(h.percentile(50.0), 50.0, 15.0);
  EXPECT_NEAR(h.percentile(90.0), 90.0, 25.0);
}

TEST(Histogram, SingleSamplePercentileIsExact) {
  obs::Histogram h(1e-3, 1e3, 16);
  h.record(0.42);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.42);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.42);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.42);
}

TEST(Histogram, PercentileOutOfRangePClampsToExtremes) {
  obs::Histogram h(1e-3, 1e3, 16);
  for (const double x : {0.1, 1.0, 10.0}) h.record(x);
  EXPECT_DOUBLE_EQ(h.percentile(-50.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(250.0), h.max());
  EXPECT_TRUE(std::isnan(h.percentile(std::nan(""))));
}

TEST(Histogram, PercentileAllMassInOverflowBin) {
  obs::Histogram h(1e-3, 1.0, 8);
  // Every sample >= hi: the overflow bucket interpolates [min, max].
  for (const double x : {2.0, 4.0, 8.0}) h.record(x);
  EXPECT_EQ(h.overflow(), 3u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 8.0);
  const double mid = h.percentile(50.0);
  EXPECT_GE(mid, 2.0);
  EXPECT_LE(mid, 8.0);
  double prev = h.percentile(0.0);
  for (double p = 10.0; p <= 100.0; p += 10.0) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(Histogram, PercentileAllMassInUnderflowBin) {
  obs::Histogram h(1.0, 10.0, 8);
  h.record(0.0);
  h.record(0.5);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.5);
  const double mid = h.percentile(50.0);
  EXPECT_GE(mid, 0.0);
  EXPECT_LE(mid, 0.5);
}

// ---- obs::Histogram shared bin-lookup table ----
//
// Every histogram of one binning shares one lookup table that routes
// most samples past the log. These tests pin that the table never moves
// a sample: each one lands where record()'s exact expression puts it.

struct Binning {
  double lo;
  double hi;
  std::size_t bins;
};

// Where a sample must land: -1 underflow, `bins` overflow, otherwise
// (log(x) - log lo) * bins / log(hi/lo), evaluated exactly as record()
// evaluates it and clamped at the top edge.
long expected_bin(const Binning& b, double x) {
  if (x < b.lo || x <= 0.0) return -1;
  if (x >= b.hi) return static_cast<long>(b.bins);
  const double log_lo = std::log(b.lo);
  const double inv_log_width =
      static_cast<double>(b.bins) / (std::log(b.hi) - log_lo);
  const auto i =
      static_cast<std::size_t>((std::log(x) - log_lo) * inv_log_width);
  return static_cast<long>(std::min(i, b.bins - 1));
}

// Samples at both endpoints and the midpoint of every table cell (the
// top 18 bits of a double: 64 cells per octave) from an octave below lo
// to an octave above hi, the range edges, non-positive values, and
// seeded log-uniform draws.
std::vector<double> sweep_samples(const Binning& b, std::uint64_t seed) {
  const auto key_of = [](double x) {
    return std::bit_cast<std::uint64_t>(x) >> 46;
  };
  std::vector<double> xs = {0.0, -1.0, b.lo, b.hi,
                            std::nextafter(b.lo, 0.0),
                            std::nextafter(b.hi, 0.0)};
  for (std::uint64_t key = key_of(b.lo / 2.0); key <= key_of(b.hi * 2.0);
       ++key) {
    xs.push_back(std::bit_cast<double>(key << 46));
    xs.push_back(std::bit_cast<double>((key << 46) | (std::uint64_t{1} << 45)));
    xs.push_back(std::bit_cast<double>(((key + 1) << 46) - 1));
  }
  Rng rng(seed);
  const double log_a = std::log(b.lo / 4.0);
  const double log_b = std::log(b.hi * 4.0);
  for (int i = 0; i < 20000; ++i)
    xs.push_back(std::exp(rng.uniform(log_a, log_b)));
  return xs;
}

// Records every sample and fails at the first one that misses its bin
// (its expected bin's count falls behind), then compares whole buckets.
// record_n(x, 3) runs on a twin histogram over the same samples.
void expect_samples_in_their_bins(const Binning& b,
                                  const std::vector<double>& xs) {
  obs::Histogram h(b.lo, b.hi, b.bins);
  obs::Histogram h3(b.lo, b.hi, b.bins);
  std::vector<std::uint64_t> want(b.bins, 0);
  std::uint64_t under = 0;
  std::uint64_t over = 0;
  for (const double x : xs) {
    h.record(x);
    h3.record_n(x, 3);
    const long i = expected_bin(b, x);
    std::uint64_t got = 0;
    std::uint64_t got3 = 0;
    std::uint64_t expect = 0;
    if (i < 0) {
      expect = ++under;
      got = h.underflow();
      got3 = h3.underflow();
    } else if (i == static_cast<long>(b.bins)) {
      expect = ++over;
      got = h.overflow();
      got3 = h3.overflow();
    } else {
      const auto bin = static_cast<std::size_t>(i);
      expect = ++want[bin];
      got = h.bin_count(bin);
      got3 = h3.bin_count(bin);
    }
    if (got != expect || got3 != 3 * expect) {
      ADD_FAILURE() << "sample " << x << " missed bin " << i << " of ("
                    << b.lo << ", " << b.hi << ", " << b.bins << ")";
      return;
    }
  }
  EXPECT_EQ(h.underflow(), under);
  EXPECT_EQ(h.overflow(), over);
  for (std::size_t i = 0; i < b.bins; ++i) {
    EXPECT_EQ(h.bin_count(i), want[i]) << "bin " << i;
    EXPECT_EQ(h3.bin_count(i), 3 * want[i]) << "bin " << i;
  }
}

// True when two histograms hold identical buckets.
bool same_buckets(const obs::Histogram& a, const obs::Histogram& b) {
  if (a.bins() != b.bins() || a.underflow() != b.underflow() ||
      a.overflow() != b.overflow() || a.count() != b.count())
    return false;
  for (std::size_t i = 0; i < a.bins(); ++i)
    if (a.bin_count(i) != b.bin_count(i)) return false;
  return true;
}

TEST(HistogramBinTable, FlowDelayAndLifecycleBinning) {
  const Binning b{1e-6, 100.0, 64};
  expect_samples_in_their_bins(b, sweep_samples(b, 1));
}

TEST(HistogramBinTable, KernelBinning) {
  const Binning b{1e-8, 1.0, 64};
  expect_samples_in_their_bins(b, sweep_samples(b, 2));
}

TEST(HistogramBinTable, QueueDepthBinning) {
  const Binning b{1.0, 1e6, 24};
  expect_samples_in_their_bins(b, sweep_samples(b, 3));
}

TEST(HistogramBinTable, DecadeBinsWithBoundariesOnCellEdges) {
  // 1.0 is a cell endpoint and a bin edge at once.
  const Binning b{1e-2, 1e2, 4};
  expect_samples_in_their_bins(b, sweep_samples(b, 4));
}

TEST(HistogramBinTable, RangeTooWideForATable) {
  // ~2,000 octaves: more cells than the table allows, slow path only.
  const Binning b{1e-300, 1e300, 64};
  expect_samples_in_their_bins(b, sweep_samples(b, 5));
}

TEST(HistogramBinTable, MoreBinsThanACellCanIndex) {
  const Binning b{1e-3, 1e3, 40000};
  expect_samples_in_their_bins(b, sweep_samples(b, 6));
}

TEST(HistogramBinTable, EachKeyComponentSelectsItsOwnTable) {
  // Neighbours of the decade binning that differ in one of lo, hi or
  // bins each get their own table, interleaved with the original.
  for (const Binning& b : {Binning{1e-2, 1e2, 4}, Binning{1e-2, 1e2, 5},
                           Binning{2e-2, 1e2, 4}, Binning{1e-2, 2e2, 4},
                           Binning{1e-2, 1e2, 4}}) {
    expect_samples_in_their_bins(b, sweep_samples(b, 9));
  }
}

TEST(HistogramBinTable, ConcurrentFirstUseBinsIdentically) {
  // A binning no other test uses, so the eight constructors race on the
  // table's first build.
  const Binning b{3e-7, 70.0, 48};
  const std::vector<double> xs = sweep_samples(b, 7);
  constexpr int kThreads = 8;
  std::vector<std::optional<obs::Histogram>> hs(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      hs[static_cast<std::size_t>(t)].emplace(b.lo, b.hi, b.bins);
      for (const double x : xs) hs[static_cast<std::size_t>(t)]->record(x);
    });
  }
  for (std::thread& th : threads) th.join();
  obs::Histogram serial(b.lo, b.hi, b.bins);
  for (const double x : xs) serial.record(x);
  for (const auto& h : hs) EXPECT_TRUE(same_buckets(*h, serial));
  expect_samples_in_their_bins(b, xs);
}

TEST(HistogramBinTable, CopiesAndMovesKeepRecording) {
  const Binning b{1e-6, 100.0, 64};
  const std::vector<double> xs = sweep_samples(b, 8);
  const std::size_t half = xs.size() / 2;
  obs::Histogram reference(b.lo, b.hi, b.bins);
  for (const double x : xs) reference.record(x);

  // Each histogram records the first half, is copied or moved, and the
  // result records the second half: all must equal `reference`.
  const auto first_half = [&] {
    auto h = std::make_unique<obs::Histogram>(b.lo, b.hi, b.bins);
    for (std::size_t i = 0; i < half; ++i) h->record(xs[i]);
    return h;
  };
  const auto second_half = [&](obs::Histogram& h) {
    for (std::size_t i = half; i < xs.size(); ++i) h.record(xs[i]);
  };

  auto original = first_half();
  obs::Histogram copied(*original);
  original.reset();  // the copy outlives its source
  second_half(copied);
  EXPECT_TRUE(same_buckets(copied, reference));

  auto source = first_half();
  obs::Histogram moved(std::move(*source));
  source.reset();
  second_half(moved);
  EXPECT_TRUE(same_buckets(moved, reference));

  obs::Histogram copy_assigned(1.0, 2.0, 1);
  copy_assigned = *first_half();
  second_half(copy_assigned);
  EXPECT_TRUE(same_buckets(copy_assigned, reference));

  obs::Histogram move_assigned(1.0, 2.0, 1);
  move_assigned = std::move(*first_half());
  second_half(move_assigned);
  EXPECT_TRUE(same_buckets(move_assigned, reference));
}

// ---- obs::Registry ----

TEST(Registry, SameKeyReturnsSameInstrument) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("net.data_tx");
  obs::Counter& b = reg.counter("net.data_tx");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, LabelsDistinguishInstruments) {
  obs::Registry reg;
  obs::Counter& f0 = reg.counter("net.delivered", {{"flow", "0"}});
  obs::Counter& f1 = reg.counter("net.delivered", {{"flow", "1"}});
  EXPECT_NE(&f0, &f1);
  f0.add(7);
  EXPECT_EQ(reg.find_counter("net.delivered", {{"flow", "0"}})->value(), 7u);
  EXPECT_EQ(reg.find_counter("net.delivered", {{"flow", "1"}})->value(), 0u);
  EXPECT_EQ(reg.find_counter("net.delivered"), nullptr);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(Registry, InstrumentsStayValidAsRegistryGrows) {
  obs::Registry reg;
  obs::Counter& first = reg.counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("extra_" + std::to_string(i));
  }
  first.add();
  EXPECT_EQ(reg.find_counter("first")->value(), 1u);
}

TEST(Registry, SnapshotJsonContainsEveryKind) {
  obs::Registry reg;
  reg.counter("events", {{"kind", "tx"}}).add(5);
  reg.gauge("load").set(0.75);
  reg.histogram("delay_s", 1e-6, 10.0, 32).record(0.5);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"tx\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  std::ostringstream out;
  obs::json_number(out, std::nan(""));
  EXPECT_EQ(out.str(), "null");
}

// ---- trace sinks ----

obs::TraceEvent make_event(double t, obs::EventType type) {
  obs::TraceEvent e;
  e.time_s = t;
  e.type = type;
  return e;
}

TEST(TraceSink, JsonlWritesOneParseableLinePerEvent) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  obs::TraceEvent e = make_event(1.25, obs::EventType::kTxStart);
  e.node = 2;
  e.peer = 0;
  e.flow = 1;
  e.value = 3.5e-4;
  e.detail = "DATA";
  sink.record(e);
  sink.record(make_event(2.0, obs::EventType::kCollision));
  sink.flush();
  EXPECT_EQ(sink.lines(), 2u);

  std::istringstream in(out.str());
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_NE(line1.find("\"ev\":\"TX_START\""), std::string::npos);
  EXPECT_NE(line1.find("\"node\":2"), std::string::npos);
  EXPECT_NE(line1.find("\"peer\":0"), std::string::npos);
  EXPECT_NE(line1.find("\"flow\":1"), std::string::npos);
  EXPECT_NE(line1.find("\"detail\":\"DATA\""), std::string::npos);
  // Absent ids (-1) are omitted entirely.
  EXPECT_EQ(line2.find("\"node\""), std::string::npos);
  EXPECT_NE(line2.find("\"ev\":\"COLLISION\""), std::string::npos);
}

TEST(TraceSink, RingKeepsExactCountsAcrossEviction) {
  obs::RingTraceSink ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.record(make_event(static_cast<double>(i), obs::EventType::kRxOk));
  }
  ring.record(make_event(10.0, obs::EventType::kDrop));
  EXPECT_EQ(ring.events().size(), 4u);
  EXPECT_EQ(ring.total(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.count(obs::EventType::kRxOk), 10u);
  EXPECT_EQ(ring.count(obs::EventType::kDrop), 1u);
  EXPECT_EQ(ring.count(obs::EventType::kTxStart), 0u);
  // The surviving window is the most recent events.
  EXPECT_DOUBLE_EQ(ring.events().front().time_s, 7.0);
  EXPECT_DOUBLE_EQ(ring.events().back().time_s, 10.0);
}

TEST(TraceSink, EventNamesAreStable) {
  EXPECT_STREQ(obs::event_name(obs::EventType::kTxStart), "TX_START");
  EXPECT_STREQ(obs::event_name(obs::EventType::kNavSet), "NAV_SET");
  EXPECT_STREQ(obs::event_name(obs::EventType::kBackoffFreeze),
               "BACKOFF_FREEZE");
}

// ---- scheduler instrumentation ----

TEST(Scheduler, EventHookSeesTimeAndQueueDepth) {
  sim::Scheduler sched;
  std::vector<double> times;
  std::vector<std::size_t> depths;
  sched.set_event_hook([&](double t, std::size_t pending) {
    times.push_back(t);
    depths.push_back(pending);
  });
  sched.schedule(1.0, [] {});
  sched.schedule(2.0, [] {});
  sched.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_EQ(depths[0], 1u);
  EXPECT_EQ(depths[1], 0u);
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(Scheduler, BoundMetricsTrackExecution) {
  obs::Registry reg;
  sim::Scheduler sched;
  sched.bind_metrics(reg);
  for (int i = 0; i < 5; ++i) {
    sched.schedule(static_cast<double>(i), [] {});
  }
  sched.run();
  const obs::Counter* executed = reg.find_counter("sim.events_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->value(), 5u);
  const obs::Histogram* depth = reg.find_histogram("sim.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count(), 5u);
}

// ---- netsim trace reconciliation ----

/// Duplicates the event stream into two sinks so one simulation run can
/// feed both the ring (for counting) and the JSONL stream.
class TeeSink final : public obs::TraceSink {
 public:
  TeeSink(obs::TraceSink& a, obs::TraceSink& b) : a_(a), b_(b) {}
  void record(const obs::TraceEvent& event) override {
    a_.record(event);
    b_.record(event);
  }
  void flush() override {
    a_.flush();
    b_.flush();
  }

 private:
  obs::TraceSink& a_;
  obs::TraceSink& b_;
};

std::uint64_t count_with_detail(const obs::RingTraceSink& ring,
                                obs::EventType type, const char* detail) {
  std::uint64_t n = 0;
  for (const obs::TraceEvent& e : ring.events()) {
    if (e.type == type && std::strcmp(e.detail, detail) == 0) ++n;
  }
  return n;
}

TEST(NetsimTrace, EventsReconcileWithCounters) {
  // A contending topology plus a Poisson flow: exercises collisions,
  // retries, queued arrivals, and delivery.
  std::vector<net::NodeConfig> nodes(3);
  nodes[0].position = {0.0, 0.0};
  nodes[1].position = {5.0, 0.0};
  nodes[2].position = {2.5, 4.0};
  const std::vector<net::Flow> flows = {{0, 2}, {1, 2, 400.0}};

  obs::RingTraceSink ring(1u << 20);  // big enough that nothing evicts
  std::ostringstream jsonl_out;
  obs::JsonlTraceSink jsonl(jsonl_out);
  TeeSink tee(ring, jsonl);

  obs::Registry reg;
  net::NetworkConfig cfg;
  cfg.duration_s = 0.3;
  cfg.trace = &tee;
  cfg.registry = &reg;

  Rng rng(42);
  const auto r = net::simulate_network(cfg, nodes, flows, rng);
  ASSERT_GT(r.total_delivered, 0u);
  ASSERT_EQ(ring.dropped(), 0u);

  // Every data/RTS launch, collision, drop, and delivery in the result
  // must appear in the trace stream, one event each.
  EXPECT_EQ(count_with_detail(ring, obs::EventType::kTxStart, "DATA"),
            r.data_tx_count);
  EXPECT_EQ(count_with_detail(ring, obs::EventType::kTxStart, "RTS"),
            r.rts_tx_count);
  EXPECT_EQ(ring.count(obs::EventType::kCollision), r.simultaneous_starts);
  EXPECT_EQ(count_with_detail(ring, obs::EventType::kStateChange, "DELIVERED"),
            r.total_delivered);
  std::uint64_t drops = 0;
  for (const auto& f : r.flows) drops += f.drops;
  EXPECT_EQ(ring.count(obs::EventType::kDrop), drops);
  // Transmissions that started either ended within the run or were still
  // in the air at the cutoff.
  EXPECT_LE(ring.count(obs::EventType::kTxEnd),
            ring.count(obs::EventType::kTxStart));
  // The JSONL stream saw the identical event sequence.
  EXPECT_EQ(jsonl.lines(), ring.total());

  // The registry holds the same numbers the result was populated from.
  EXPECT_EQ(reg.find_counter("net.data_tx")->value(), r.data_tx_count);
  EXPECT_EQ(reg.find_counter("net.simultaneous_starts")->value(),
            r.simultaneous_starts);
  const obs::Counter* executed = reg.find_counter("sim.events_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->value(), 0u);
}

TEST(NetsimTrace, RtsCtsRunEmitsNavAndRtsEvents) {
  const auto setup = net::make_hidden_terminal_setup(100.0);
  obs::RingTraceSink ring(1u << 20);
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.rts_cts = true;
  cfg.trace = &ring;
  Rng rng(7);
  const auto r = net::simulate_network(cfg, setup.nodes, setup.flows, rng);
  ASSERT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(count_with_detail(ring, obs::EventType::kTxStart, "RTS"),
            r.rts_tx_count);
  EXPECT_GT(r.rts_tx_count, 0u);
  EXPECT_GT(ring.count(obs::EventType::kNavSet), 0u);
}

TEST(NetsimTrace, DisabledTracingMatchesEnabledResults) {
  // The trace sink must be purely observational: identical results with
  // and without it.
  std::vector<net::NodeConfig> nodes(2);
  nodes[1].position = {10.0, 0.0};
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;

  Rng rng1(9);
  const auto plain = net::simulate_network(cfg, nodes, {{0, 1}}, rng1);

  obs::RingTraceSink ring(1u << 18);
  cfg.trace = &ring;
  Rng rng2(9);
  const auto traced = net::simulate_network(cfg, nodes, {{0, 1}}, rng2);

  EXPECT_EQ(plain.total_delivered, traced.total_delivered);
  EXPECT_EQ(plain.data_tx_count, traced.data_tx_count);
  EXPECT_DOUBLE_EQ(plain.aggregate_throughput_mbps,
                   traced.aggregate_throughput_mbps);
  EXPECT_GT(ring.total(), 0u);
}

}  // namespace
}  // namespace wlan
