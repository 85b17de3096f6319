#include "par/montecarlo.h"

namespace wlan::par {
namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

std::uint64_t splitmix_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t point,
                          std::uint64_t trial) {
  // SplitMix64 finalizer chain absorbing each counter in turn; the
  // odd-constant multiplies keep (point, trial) and (trial, point)
  // from colliding.
  std::uint64_t z = splitmix_finalize(root + kGolden);
  z = splitmix_finalize(z + point * 0xBF58476D1CE4E5B9ull + kGolden);
  z = splitmix_finalize(z + trial * 0x94D049BB133111EBull + kGolden);
  return z;
}

namespace detail {

using obs::perf::detail::g_tls;

ProfileShardGuard::ProfileShardGuard(const ProfileTargets& targets) {
  if (!targets.active()) return;
  targets_ = &targets;
  // Arm the executing thread's dedicated shard collector: draining it at
  // retire can then never sweep up spans the thread recorded outside
  // this chunk (the caller helping from inside its own open spans keeps
  // those in thread_collector()).
  saved_collector_ = g_tls.collector;
  saved_current_ = g_tls.current;
  saved_target_ = g_tls.target;
  obs::perf::detail::SpanCollector& shard =
      obs::perf::detail::shard_collector();
  g_tls.collector = &shard;
  g_tls.current = shard.root();
  g_tls.target = targets.spans;
}

ProfileShardGuard::~ProfileShardGuard() {
  if (targets_ == nullptr) return;
  // SpanProfile::add is internally synchronized; no global lock needed.
  obs::perf::detail::shard_collector().drain_into(*targets_->spans,
                                                  targets_->prefix);
  g_tls.collector = saved_collector_;
  g_tls.current = saved_current_;
  g_tls.target = saved_target_;
}

ProfileTargets profiling_targets() {
  ProfileTargets targets;
  targets.spans = obs::perf::span_profiling_target();
  if (targets.spans != nullptr) targets.prefix = obs::perf::current_path();
  return targets;
}

std::size_t auto_chunk(std::size_t n_trials) {
  // Aim for ~64 chunks: enough granularity for stealing to balance an
  // 8..32-lane pool, coarse enough that per-chunk overhead (a span-shard
  // drain when profiling) stays negligible. Depends on the trial
  // count ONLY — a jobs-derived chunk would change reduction grouping,
  // and with it floating-point sums, across thread counts.
  return std::max<std::size_t>(1, (n_trials + 63) / 64);
}

ThreadPool& select_pool(const SweepOptions& opt,
                        std::unique_ptr<ThreadPool>& owned) {
  if (opt.jobs == 0) return default_pool();
  owned = std::make_unique<ThreadPool>(opt.jobs);
  return *owned;
}

}  // namespace detail
}  // namespace wlan::par
