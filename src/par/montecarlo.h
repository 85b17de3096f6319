// Deterministic parallel Monte-Carlo sweeps.
//
// Every trial of a sweep gets its own Rng seeded by a counter-based
// SplitMix64 derivation over (root_seed, point_index, trial_index) —
// no trial ever consumes another trial's randomness, so the result of a
// sweep is a pure function of (root_seed, point count, trial count,
// chunk size) and is bitwise identical for ANY number of threads,
// including one. Chunk boundaries are derived from the trial count
// alone (never from the thread count), and per-chunk partial results
// are reduced in chunk-index order on the calling thread, so even
// non-associative floating-point reductions are schedule-independent.
//
// Span profiling (obs/perf.h) is sharded automatically: when the calling
// thread has span profiling armed, each chunk arms the executing
// thread's shard collector, opens an "mc.chunk" (or "mc.map") span, and
// drains the shard into the caller's SpanProfile as the chunk retires —
// prefixed with the caller's open span path captured before fan-out, so
// worker spans graft under the sweep's call site. SpanProfile rows are
// integer counters merged by commutative addition and published in
// sorted path order, so the merged profile is bitwise identical for any
// --jobs. With par::telemetry_enabled() the chunk loop also records
// per-chunk wall times into par::chunk_stats().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/perf.h"
#include "par/pool.h"

namespace wlan::par {

/// Counter-based seed for trial `trial` of sweep point `point` under
/// `root`: a SplitMix64-style finalizer chain absorbing each counter.
/// Statistically independent across neighbouring counters.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t point,
                          std::uint64_t trial);

/// Fresh generator for one (point, trial) cell.
inline Rng trial_rng(std::uint64_t root, std::uint64_t point,
                     std::uint64_t trial) {
  return Rng(derive_seed(root, point, trial));
}

/// Upper bound on the lane count of batched sweeps (the PHY kernels'
/// survivor masks and lane bookkeeping are sized for 16 lanes).
inline constexpr std::size_t kMaxBatch = 16;

/// Knobs shared by every sweep entry point.
struct SweepOptions {
  /// Root of the per-trial seed derivation. Two sweeps with the same
  /// root and shape produce identical results.
  std::uint64_t root_seed = 0x9E3779B97F4A7C15ull;
  /// Execution lanes; 0 = the process default pool (see --jobs).
  /// A private pool of this size is used when nonzero.
  unsigned jobs = 0;
  /// Trials per chunk; 0 = automatic (a function of the trial count
  /// only — NEVER of `jobs`, which would break cross-thread-count
  /// determinism of floating-point reductions).
  std::size_t chunk = 0;
};

namespace detail {

/// Profiling destinations captured on the sweep-initiating thread
/// before fan-out: the span profile and the caller's open span path
/// (worker chunk spans graft under it).
struct ProfileTargets {
  obs::perf::SpanProfile* spans = nullptr;
  std::string prefix;
  bool active() const { return spans != nullptr; }
};

/// Arms thread-local span profiling at the executing thread's shard
/// collector for the guard's lifetime (no-op when `targets` is
/// inactive); on destruction drains the shard into targets.spans with
/// targets.prefix and restores the previous arming. `targets` must
/// outlive the guard (the sweep templates keep it alive across
/// parallel_for).
class ProfileShardGuard {
 public:
  explicit ProfileShardGuard(const ProfileTargets& targets);
  ~ProfileShardGuard();
  ProfileShardGuard(const ProfileShardGuard&) = delete;
  ProfileShardGuard& operator=(const ProfileShardGuard&) = delete;

 private:
  const ProfileTargets* targets_ = nullptr;  // null: nothing armed
  obs::perf::detail::SpanCollector* saved_collector_ = nullptr;
  obs::perf::detail::SpanNode* saved_current_ = nullptr;
  obs::perf::SpanProfile* saved_target_ = nullptr;
};

/// The profiling targets armed on the calling thread (inactive when
/// profiling is off) — captured once per sweep, before fan-out.
ProfileTargets profiling_targets();

/// Chunk size used when SweepOptions::chunk == 0. Depends on n only.
std::size_t auto_chunk(std::size_t n_trials);

/// Pool selected by `opt` (the default pool, or a private one).
/// Returns the default pool when opt.jobs == 0; otherwise the caller
/// owns the returned pool via `owned`.
ThreadPool& select_pool(const SweepOptions& opt,
                        std::unique_ptr<ThreadPool>& owned);

}  // namespace detail

/// Runs `n_trials` Monte-Carlo trials of sweep point `point` and folds
/// them into one `Result` (default-constructed, value-initialized).
///
///   trial(point, t, rng, acc)  — runs trial t, accumulating into acc;
///                                `rng` is the trial's private generator.
///   merge(acc, partial)        — folds a chunk partial into acc;
///                                called in chunk order.
template <class Result, class TrialFn, class MergeFn>
Result montecarlo(std::size_t n_trials, std::uint64_t point,
                  const SweepOptions& opt, TrialFn&& trial, MergeFn&& merge) {
  check(n_trials > 0, "par::montecarlo requires at least one trial");
  const std::size_t chunk =
      opt.chunk ? opt.chunk : detail::auto_chunk(n_trials);
  const std::size_t n_chunks = (n_trials + chunk - 1) / chunk;
  std::vector<Result> partial(n_chunks);
  const detail::ProfileTargets prof = detail::profiling_targets();

  std::unique_ptr<ThreadPool> owned;
  ThreadPool& pool = detail::select_pool(opt, owned);
  pool.parallel_for(n_chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const detail::ProfileShardGuard shard(prof);
      const bool telem = telemetry_enabled();
      const std::uint64_t c_begin = telem ? detail::monotonic_ns() : 0;
      {
        const obs::perf::ScopedSpan chunk_span("mc.chunk");
        const std::size_t t0 = c * chunk;
        const std::size_t t1 = std::min(n_trials, t0 + chunk);
        Result acc{};
        for (std::size_t t = t0; t < t1; ++t) {
          Rng rng = trial_rng(opt.root_seed, point, t);
          trial(point, t, rng, acc);
        }
        partial[c] = std::move(acc);
      }
      if (telem) detail::record_chunk_ns(detail::monotonic_ns() - c_begin);
    }
  });

  Result out{};
  for (std::size_t c = 0; c < n_chunks; ++c) merge(out, partial[c]);
  return out;
}

/// Trial-batched montecarlo: trials run in groups of up to `batch`
/// lanes so the group function can push them through the PHY in SIMD
/// lockstep (dsp/batch.h).
///
///   group(point, t0, rngs, acc) — runs trials [t0, t0 + rngs.size()),
///                                 where rngs[i] is the private generator
///                                 of trial t0 + i (the same trial_rng
///                                 derivation the scalar engine uses);
///                                 folds into acc in trial order.
///
/// The chunk size is rounded up to a multiple of `batch`, so group
/// boundaries are a pure function of (n_trials, batch, opt.chunk) —
/// every group starts at a multiple of `batch` regardless of --jobs,
/// and only the final group of a point can be short. A group function
/// whose per-trial results match the scalar trial function therefore
/// reproduces montecarlo() bitwise for any thread count.
template <class Result, class GroupFn, class MergeFn>
Result montecarlo_batched(std::size_t n_trials, std::uint64_t point,
                          std::size_t batch, const SweepOptions& opt,
                          GroupFn&& group, MergeFn&& merge) {
  check(n_trials > 0, "par::montecarlo_batched requires at least one trial");
  check(batch >= 1 && batch <= kMaxBatch,
        "par::montecarlo_batched batch size out of range");
  const std::size_t chunk0 =
      opt.chunk ? opt.chunk : detail::auto_chunk(n_trials);
  const std::size_t chunk = ((chunk0 + batch - 1) / batch) * batch;
  const std::size_t n_chunks = (n_trials + chunk - 1) / chunk;
  std::vector<Result> partial(n_chunks);
  const detail::ProfileTargets prof = detail::profiling_targets();

  std::unique_ptr<ThreadPool> owned;
  ThreadPool& pool = detail::select_pool(opt, owned);
  pool.parallel_for(n_chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const detail::ProfileShardGuard shard(prof);
      const bool telem = telemetry_enabled();
      const std::uint64_t c_begin = telem ? detail::monotonic_ns() : 0;
      {
        const obs::perf::ScopedSpan chunk_span("mc.chunk");
        const std::size_t t0 = c * chunk;
        const std::size_t t1 = std::min(n_trials, t0 + chunk);
        Result acc{};
        std::array<Rng, kMaxBatch> rngs;
        for (std::size_t g0 = t0; g0 < t1; g0 += batch) {
          const std::size_t n_g = std::min(batch, t1 - g0);
          for (std::size_t i = 0; i < n_g; ++i) {
            rngs[i] = trial_rng(opt.root_seed, point, g0 + i);
          }
          group(point, g0, std::span<Rng>(rngs.data(), n_g), acc);
        }
        partial[c] = std::move(acc);
      }
      if (telem) detail::record_chunk_ns(detail::monotonic_ns() - c_begin);
    }
  });

  Result out{};
  for (std::size_t c = 0; c < n_chunks; ++c) merge(out, partial[c]);
  return out;
}

/// Sweep over `n_points` points x `n_trials` trials; returns one merged
/// Result per point (in point order). Chunks never straddle points, so
/// each point's reduction order is fixed regardless of thread count.
template <class Result, class TrialFn, class MergeFn>
std::vector<Result> sweep(std::size_t n_points, std::size_t n_trials,
                          const SweepOptions& opt, TrialFn&& trial,
                          MergeFn&& merge) {
  check(n_points > 0 && n_trials > 0, "par::sweep requires points and trials");
  const std::size_t chunk =
      opt.chunk ? opt.chunk : detail::auto_chunk(n_trials);
  const std::size_t chunks_per_point = (n_trials + chunk - 1) / chunk;
  const std::size_t total = n_points * chunks_per_point;
  std::vector<Result> partial(total);
  const detail::ProfileTargets prof = detail::profiling_targets();

  std::unique_ptr<ThreadPool> owned;
  ThreadPool& pool = detail::select_pool(opt, owned);
  pool.parallel_for(total, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const detail::ProfileShardGuard shard(prof);
      const bool telem = telemetry_enabled();
      const std::uint64_t c_begin = telem ? detail::monotonic_ns() : 0;
      {
        const obs::perf::ScopedSpan chunk_span("mc.chunk");
        const std::size_t point = c / chunks_per_point;
        const std::size_t t0 = (c % chunks_per_point) * chunk;
        const std::size_t t1 = std::min(n_trials, t0 + chunk);
        Result acc{};
        for (std::size_t t = t0; t < t1; ++t) {
          Rng rng = trial_rng(opt.root_seed, point, t);
          trial(point, t, rng, acc);
        }
        partial[c] = std::move(acc);
      }
      if (telem) detail::record_chunk_ns(detail::monotonic_ns() - c_begin);
    }
  });

  std::vector<Result> out(n_points);
  for (std::size_t p = 0; p < n_points; ++p) {
    for (std::size_t c = 0; c < chunks_per_point; ++c) {
      merge(out[p], partial[p * chunks_per_point + c]);
    }
  }
  return out;
}

/// Batched variant of sweep(): groups of up to `batch` trials per
/// point, with the montecarlo_batched() group contract and the sweep()
/// guarantees (chunks group-aligned and never straddling points).
template <class Result, class GroupFn, class MergeFn>
std::vector<Result> sweep_batched(std::size_t n_points, std::size_t n_trials,
                                  std::size_t batch, const SweepOptions& opt,
                                  GroupFn&& group, MergeFn&& merge) {
  check(n_points > 0 && n_trials > 0,
        "par::sweep_batched requires points and trials");
  check(batch >= 1 && batch <= kMaxBatch,
        "par::sweep_batched batch size out of range");
  const std::size_t chunk0 =
      opt.chunk ? opt.chunk : detail::auto_chunk(n_trials);
  const std::size_t chunk = ((chunk0 + batch - 1) / batch) * batch;
  const std::size_t chunks_per_point = (n_trials + chunk - 1) / chunk;
  const std::size_t total = n_points * chunks_per_point;
  std::vector<Result> partial(total);
  const detail::ProfileTargets prof = detail::profiling_targets();

  std::unique_ptr<ThreadPool> owned;
  ThreadPool& pool = detail::select_pool(opt, owned);
  pool.parallel_for(total, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const detail::ProfileShardGuard shard(prof);
      const bool telem = telemetry_enabled();
      const std::uint64_t c_begin = telem ? detail::monotonic_ns() : 0;
      {
        const obs::perf::ScopedSpan chunk_span("mc.chunk");
        const std::size_t point = c / chunks_per_point;
        const std::size_t t0 = (c % chunks_per_point) * chunk;
        const std::size_t t1 = std::min(n_trials, t0 + chunk);
        Result acc{};
        std::array<Rng, kMaxBatch> rngs;
        for (std::size_t g0 = t0; g0 < t1; g0 += batch) {
          const std::size_t n_g = std::min(batch, t1 - g0);
          for (std::size_t i = 0; i < n_g; ++i) {
            rngs[i] = trial_rng(opt.root_seed, point, g0 + i);
          }
          group(point, g0, std::span<Rng>(rngs.data(), n_g), acc);
        }
        partial[c] = std::move(acc);
      }
      if (telem) detail::record_chunk_ns(detail::monotonic_ns() - c_begin);
    }
  });

  std::vector<Result> out(n_points);
  for (std::size_t p = 0; p < n_points; ++p) {
    for (std::size_t c = 0; c < chunks_per_point; ++c) {
      merge(out[p], partial[p * chunks_per_point + c]);
    }
  }
  return out;
}

/// Parallel map: `fn(index, rng)` for each index in [0, n), one derived
/// Rng per index (point = index, trial = 0), results in index order.
/// For batches of heterogeneous independent runs (netsim replications,
/// per-distance simulator points). Runs on `pool`; `opt.jobs` is not
/// consulted (see the overload below).
template <class Fn>
auto map(ThreadPool& pool, std::size_t n, const SweepOptions& opt, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}, std::declval<Rng&>()))> {
  using R = decltype(fn(std::size_t{0}, std::declval<Rng&>()));
  check(n > 0, "par::map requires at least one item");
  std::vector<R> out(n);
  const detail::ProfileTargets prof = detail::profiling_targets();

  pool.parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const detail::ProfileShardGuard shard(prof);
      const bool telem = telemetry_enabled();
      const std::uint64_t c_begin = telem ? detail::monotonic_ns() : 0;
      {
        const obs::perf::ScopedSpan map_span("mc.map");
        Rng rng = trial_rng(opt.root_seed, i, 0);
        out[i] = fn(i, rng);
      }
      if (telem) detail::record_chunk_ns(detail::monotonic_ns() - c_begin);
    }
  });
  return out;
}

/// Parallel map on the pool `opt` selects (see SweepOptions::jobs).
template <class Fn>
auto map(std::size_t n, const SweepOptions& opt, Fn&& fn) {
  std::unique_ptr<ThreadPool> owned;
  return map(detail::select_pool(opt, owned), n, opt, std::forward<Fn>(fn));
}

}  // namespace wlan::par
