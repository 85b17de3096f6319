#include "par/pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.h"

namespace wlan::par {
namespace {

// Lane index of the current thread within its pool, or kNoLane for
// threads the pool did not spawn (the main thread, other pools' workers).
constexpr unsigned kNoLane = ~0u;
thread_local unsigned tl_lane = kNoLane;

std::atomic<bool> g_telemetry{false};

}  // namespace

bool telemetry_enabled() noexcept {
  return g_telemetry.load(std::memory_order_relaxed);
}

void set_telemetry_enabled(bool on) noexcept {
  g_telemetry.store(on, std::memory_order_relaxed);
}

namespace detail {

std::uint64_t monotonic_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

LaneTelemetry PoolTelemetry::totals() const {
  LaneTelemetry t;
  for (const LaneTelemetry& lane : lanes) {
    t.tasks += lane.tasks;
    t.steal_attempts += lane.steal_attempts;
    t.steal_successes += lane.steal_successes;
    t.help_iterations += lane.help_iterations;
    t.busy_ns += lane.busy_ns;
    t.park_ns += lane.park_ns;
  }
  return t;
}

double PoolTelemetry::utilization(double wall_s) const {
  if (lanes.empty() || wall_s <= 0.0) return 0.0;
  const double busy_s = static_cast<double>(totals().busy_ns) * 1e-9;
  return busy_s / (static_cast<double>(lanes.size()) * wall_s);
}

double PoolTelemetry::imbalance() const {
  if (lanes.empty()) return 0.0;
  std::uint64_t max_busy = 0;
  std::uint64_t total_busy = 0;
  for (const LaneTelemetry& lane : lanes) {
    max_busy = std::max(max_busy, lane.busy_ns);
    total_busy += lane.busy_ns;
  }
  if (total_busy == 0) return 0.0;
  const double mean =
      static_cast<double>(total_busy) / static_cast<double>(lanes.size());
  return static_cast<double>(max_busy) / mean;
}

void publish_telemetry(obs::Registry& registry, const PoolTelemetry& pool,
                       double wall_s) {
  const LaneTelemetry totals = pool.totals();
  registry.counter("par.tasks").add(totals.tasks);
  registry.counter("par.steal_attempts").add(totals.steal_attempts);
  registry.counter("par.steal_successes").add(totals.steal_successes);
  registry.counter("par.help_iterations").add(totals.help_iterations);
  registry.gauge("par.lanes").set(static_cast<double>(pool.lanes.size()));
  registry.gauge("par.busy_s").set(static_cast<double>(totals.busy_ns) * 1e-9);
  registry.gauge("par.park_s").set(static_cast<double>(totals.park_ns) * 1e-9);
  registry.gauge("par.utilization").set(pool.utilization(wall_s));
  registry.gauge("par.imbalance").set(pool.imbalance());
}

void EpochStats::record_round(double round_wall_s, const double* task_busy_s,
                              std::size_t n) {
  ++rounds;
  tasks = n;
  wall_s += round_wall_s;
  double max_busy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    busy_s += task_busy_s[i];
    max_busy = std::max(max_busy, task_busy_s[i]);
  }
  max_busy_s += max_busy;
}

double EpochStats::utilization(unsigned lanes) const {
  if (lanes == 0 || wall_s <= 0.0) return 0.0;
  const double u = busy_s / (wall_s * static_cast<double>(lanes));
  return std::min(1.0, std::max(0.0, u));
}

double EpochStats::imbalance() const {
  if (tasks == 0 || busy_s <= 0.0) return 0.0;
  const double mean_busy_s = busy_s / static_cast<double>(tasks);
  return max_busy_s / mean_busy_s;
}

void publish_epoch_stats(obs::Registry& registry, const EpochStats& stats,
                         unsigned lanes) {
  registry.gauge("par.epoch.rounds").set(static_cast<double>(stats.rounds));
  registry.gauge("par.epoch.wall_s").set(stats.wall_s);
  registry.gauge("par.epoch.wait_s").set(stats.wait_s);
  registry.gauge("par.epoch.utilization").set(stats.utilization(lanes));
  registry.gauge("par.epoch.imbalance").set(stats.imbalance());
}

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(std::max(1u, jobs == 0 ? hardware_jobs() : jobs)) {
  const unsigned workers = jobs_ - 1;
  lanes_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  stats_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i) {
    stats_.push_back(std::make_unique<LaneStats>());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::push_task(std::function<void()> task) {
  // Workers push to their own lane (back, LIFO for cache warmth);
  // external threads round-robin across lanes.
  unsigned lane = tl_lane;
  if (lane == kNoLane || lane >= lanes_.size()) {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    lane = static_cast<unsigned>(next_lane_++ % lanes_.size());
  }
  {
    const std::lock_guard<std::mutex> lock(lanes_[lane]->mutex);
    lanes_[lane]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

ThreadPool::LaneStats& ThreadPool::stats_slot(unsigned home_lane) {
  // Workers own slots 0..jobs-2; every external caller shares the last.
  const std::size_t slot = (home_lane != kNoLane && home_lane < lanes_.size())
                               ? home_lane
                               : jobs_ - 1;
  return *stats_[slot];
}

PoolTelemetry ThreadPool::telemetry() const {
  PoolTelemetry t;
  t.lanes.reserve(jobs_);
  for (const auto& s : stats_) {
    LaneTelemetry lane;
    lane.tasks = s->tasks.load(std::memory_order_relaxed);
    lane.steal_attempts = s->steal_attempts.load(std::memory_order_relaxed);
    lane.steal_successes = s->steal_successes.load(std::memory_order_relaxed);
    lane.help_iterations = s->help_iterations.load(std::memory_order_relaxed);
    lane.busy_ns = s->busy_ns.load(std::memory_order_relaxed);
    lane.park_ns = s->park_ns.load(std::memory_order_relaxed);
    t.lanes.push_back(lane);
  }
  return t;
}

void ThreadPool::reset_telemetry() {
  for (const auto& s : stats_) {
    s->tasks.store(0, std::memory_order_relaxed);
    s->steal_attempts.store(0, std::memory_order_relaxed);
    s->steal_successes.store(0, std::memory_order_relaxed);
    s->help_iterations.store(0, std::memory_order_relaxed);
    s->busy_ns.store(0, std::memory_order_relaxed);
    s->park_ns.store(0, std::memory_order_relaxed);
  }
}

bool ThreadPool::try_run_one(unsigned home_lane) {
  const bool telem = telemetry_enabled();
  std::function<void()> task;
  // Own lane first (back = most recently pushed), then steal the oldest
  // task from the other lanes.
  if (home_lane != kNoLane && home_lane < lanes_.size()) {
    Lane& own = *lanes_[home_lane];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    if (telem && !lanes_.empty()) {
      stats_slot(home_lane).steal_attempts.fetch_add(
          1, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < lanes_.size() && !task; ++i) {
      const std::size_t victim =
          (home_lane == kNoLane ? i : (home_lane + 1 + i) % lanes_.size());
      if (victim >= lanes_.size()) continue;
      Lane& lane = *lanes_[victim];
      const std::lock_guard<std::mutex> lock(lane.mutex);
      if (!lane.tasks.empty()) {
        task = std::move(lane.tasks.front());
        lane.tasks.pop_front();
      }
    }
    if (telem && task) {
      stats_slot(home_lane).steal_successes.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  if (!task) return false;
  if (telem) {
    LaneStats& s = stats_slot(home_lane);
    // Counted before the body runs: the last task of a parallel_for
    // releases its caller, which may read telemetry() right away.
    s.tasks.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t0 = detail::monotonic_ns();
    task();
    s.busy_ns.fetch_add(detail::monotonic_ns() - t0,
                        std::memory_order_relaxed);
  } else {
    task();
  }
  return true;
}

void ThreadPool::worker_loop(unsigned lane) {
  tl_lane = lane;
  for (;;) {
    if (try_run_one(lane)) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_) return;
    // Re-check the queues under the wake mutex: push_task notifies after
    // enqueueing, so a task pushed between our scan and this wait would
    // otherwise be missed until the next notification.
    bool any = false;
    for (const auto& l : lanes_) {
      const std::lock_guard<std::mutex> qlock(l->mutex);
      if (!l->tasks.empty()) {
        any = true;
        break;
      }
    }
    if (any) continue;
    if (telemetry_enabled()) {
      const std::uint64_t t0 = detail::monotonic_ns();
      wake_cv_.wait(lock);
      stats_[lane]->park_ns.fetch_add(detail::monotonic_ns() - t0,
                                      std::memory_order_relaxed);
    } else {
      wake_cv_.wait(lock);
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(1, chunk);

  // Pool of one lane (or a single chunk): run inline, no queues, no
  // synchronization — the serial path every single-threaded caller gets.
  // The caller slot still counts tasks/busy time so --jobs 1 reports a
  // meaningful utilization.
  if (jobs_ == 1 || n <= chunk) {
    if (telemetry_enabled()) {
      LaneStats& s = stats_slot(tl_lane);
      for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::uint64_t t0 = detail::monotonic_ns();
        fn(begin, std::min(n, begin + chunk));
        s.busy_ns.fetch_add(detail::monotonic_ns() - t0,
                            std::memory_order_relaxed);
        s.tasks.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      for (std::size_t begin = 0; begin < n; begin += chunk) {
        fn(begin, std::min(n, begin + chunk));
      }
    }
    return;
  }

  struct ForState {
    std::atomic<std::size_t> remaining{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;  // set under mutex by the final chunk
    std::exception_ptr error;
  };
  ForState state;
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  state.remaining.store(n_chunks, std::memory_order_relaxed);

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    push_task([&state, &fn, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state.mutex);
        if (!state.error) state.error = std::current_exception();
      }
      if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(state.mutex);
        state.done = true;
        state.done_cv.notify_all();
      }
    });
  }

  // Help until every chunk of THIS call has finished. Helping may pick
  // up tasks of other in-flight parallel_for calls (nested submits) —
  // that is what makes reentrancy deadlock-free.
  const unsigned home = tl_lane;
  const bool telem = telemetry_enabled();
  while (state.remaining.load(std::memory_order_acquire) > 0) {
    if (telem) {
      stats_slot(home).help_iterations.fetch_add(1, std::memory_order_relaxed);
    }
    if (try_run_one(home)) continue;
    std::unique_lock<std::mutex> lock(state.mutex);
    if (state.done) break;
    // Our chunks are running on other threads; nothing left to steal.
    // Wake periodically in case a nested submit parked new work.
    if (telem) {
      const std::uint64_t t0 = detail::monotonic_ns();
      state.done_cv.wait_for(lock, std::chrono::milliseconds(1));
      stats_slot(home).park_ns.fetch_add(detail::monotonic_ns() - t0,
                                         std::memory_order_relaxed);
    } else {
      state.done_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  // The final chunk flips `done` and notifies while holding state.mutex.
  // Waiting on that flag under the same mutex means this cannot return —
  // and ForState cannot be destroyed — until the notifier has released
  // the lock, i.e. fully left notify_all. Observing the relaxed counter
  // alone would allow destruction mid-broadcast.
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.done_cv.wait(lock, [&state] { return state.done; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

namespace {

std::mutex g_default_mutex;
std::unique_ptr<ThreadPool> g_default_pool;
unsigned g_default_jobs = 0;  // 0 = hardware_concurrency

}  // namespace

ThreadPool& default_pool() {
  const std::lock_guard<std::mutex> lock(g_default_mutex);
  if (!g_default_pool) {
    g_default_pool = std::make_unique<ThreadPool>(g_default_jobs);
  }
  return *g_default_pool;
}

void set_default_jobs(unsigned jobs) {
  const std::lock_guard<std::mutex> lock(g_default_mutex);
  g_default_jobs = jobs;
  g_default_pool.reset();  // next default_pool() call rebuilds at the new size
}

unsigned default_jobs() {
  const std::lock_guard<std::mutex> lock(g_default_mutex);
  return g_default_jobs == 0 ? ThreadPool::hardware_jobs() : g_default_jobs;
}

}  // namespace wlan::par
