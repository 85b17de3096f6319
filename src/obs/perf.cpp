#include "obs/perf.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace wlan::obs::perf {
namespace detail {

thread_local constinit PerfTls g_tls WLAN_PERF_TLS_MODEL{};

namespace {

std::atomic<TickFn> g_tick{nullptr};
std::atomic<AllocFn> g_alloc{nullptr};

}  // namespace

std::uint64_t now_ns() noexcept {
  if (const TickFn f = g_tick.load(std::memory_order_relaxed)) return f();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

AllocFn alloc_fn() noexcept {
  return g_alloc.load(std::memory_order_relaxed);
}

SpanCollector::SpanCollector() { nodes_.emplace_back(); }

SpanNode* SpanCollector::root() noexcept { return &nodes_.front(); }

SpanNode* SpanCollector::enter(SpanNode* parent, const char* name) {
  for (SpanNode* child : parent->children) {
    // Literal names usually dedupe by pointer; fall back to content so
    // the same name from two translation units shares one node.
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      return child;
    }
  }
  nodes_.emplace_back();
  SpanNode* node = &nodes_.back();
  node->name = name;
  node->parent = parent;
  parent->children.push_back(node);
  return node;
}

namespace {

void drain_node(SpanNode* node, const std::string& path, SpanProfile& target) {
  if (node->stats.any()) {
    target.add(path, node->stats);
    node->stats = SpanStats{};
  }
  for (SpanNode* child : node->children) {
    std::string child_path = path;
    child_path += ';';
    child_path += child->name;
    drain_node(child, child_path, target);
  }
}

}  // namespace

void SpanCollector::drain_into(SpanProfile& target, const std::string& prefix) {
  SpanNode* r = root();
  r->stats = SpanStats{};  // depth-0 closes accumulate child_ns here; discard
  for (SpanNode* child : r->children) {
    std::string path = prefix;
    if (!path.empty()) path += ';';
    path += child->name;
    drain_node(child, path, target);
  }
}

namespace {

// Collectors live in a process-wide arena, not in thread_local objects
// with destructors: the main thread's thread_local destructors run
// BEFORE atexit handlers, and bench_util finalizes its root span and
// drains the main thread's collector from one. Threads keep only a
// trivially-destructible pointer; a thread that exits leaves its (fully
// drained) collector parked in the arena. The deque keeps addresses
// stable across emplacements.
struct CollectorArena {
  std::mutex mutex;
  std::deque<SpanCollector> collectors;

  SpanCollector& create() {
    const std::lock_guard<std::mutex> lock(mutex);
    collectors.emplace_back();
    return collectors.back();
  }
};

CollectorArena& collector_arena() {
  static CollectorArena arena;
  return arena;
}

}  // namespace

SpanCollector& thread_collector() {
  thread_local constinit SpanCollector* collector = nullptr;
  if (collector == nullptr) collector = &collector_arena().create();
  return *collector;
}

SpanCollector& shard_collector() {
  thread_local constinit SpanCollector* collector = nullptr;
  if (collector == nullptr) collector = &collector_arena().create();
  return *collector;
}

}  // namespace detail

using detail::g_tls;

ScopedSpan::~ScopedSpan() {
  if (node_ == nullptr) return;
  const std::uint64_t elapsed = detail::now_ns() - start_ns_;
  detail::SpanNode* parent = node_->parent;
  node_->stats.calls += 1;
  node_->stats.total_ns += elapsed;
  parent->stats.child_ns += elapsed;
  if (alloc_) {
    const std::uint64_t allocs = alloc_() - start_allocs_;
    node_->stats.allocs += allocs;
    parent->stats.child_allocs += allocs;
  }
  g_tls.current = parent;
}

void SpanProfile::add(const std::string& path, const SpanStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[path].add(stats);
}

void SpanProfile::merge(const SpanProfile& other) {
  const std::map<std::string, SpanStats> rows = other.spans();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [path, stats] : rows) spans_[path].add(stats);
}

void SpanProfile::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

bool SpanProfile::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.empty();
}

std::map<std::string, SpanStats> SpanProfile::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t SpanProfile::root_total_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [path, stats] : spans_) {
    if (path.find(';') == std::string::npos) total += stats.total_ns;
  }
  return total;
}

SpanStats SpanProfile::leaf_stats(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanStats sum;
  for (const auto& [path, stats] : spans_) {
    const std::size_t semi = path.rfind(';');
    const std::string_view leaf =
        semi == std::string::npos ? std::string_view(path)
                                  : std::string_view(path).substr(semi + 1);
    if (leaf == name) sum.add(stats);
  }
  return sum;
}

void SpanProfile::publish(Registry& registry) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [path, stats] : spans_) {
    const std::vector<Label> label{{"span", path}};
    registry.counter("span.calls", label).add(stats.calls);
    registry.counter("span.total_ns", label).add(stats.total_ns);
    registry.counter("span.self_ns", label).add(stats.self_ns());
    registry.counter("span.allocs", label).add(stats.allocs);
  }
}

void SpanProfile::write_folded(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [path, stats] : spans_) {
    out << path << ' ' << stats.self_ns() << '\n';
  }
}

std::string SpanProfile::folded() const {
  std::ostringstream out;
  write_folded(out);
  return out.str();
}

std::vector<FoldedLine> parse_folded(std::istream& in) {
  std::vector<FoldedLine> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    check(space != std::string::npos && space > 0 && space + 1 < line.size(),
          "parse_folded: line is not \"path value\"");
    FoldedLine parsed;
    parsed.path = line.substr(0, space);
    std::uint64_t value = 0;
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      const char c = line[i];
      check(c >= '0' && c <= '9', "parse_folded: value is not an integer");
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    parsed.self_ns = value;
    lines.push_back(std::move(parsed));
  }
  return lines;
}

void enable_span_profiling(SpanProfile& target) {
  if (g_tls.collector != nullptr && g_tls.target != nullptr &&
      g_tls.target != &target) {
    g_tls.collector->drain_into(*g_tls.target, "");
  }
  g_tls.collector = &detail::thread_collector();
  g_tls.current = g_tls.collector->root();
  g_tls.target = &target;
}

void disable_span_profiling() {
  if (g_tls.collector != nullptr && g_tls.target != nullptr) {
    g_tls.collector->drain_into(*g_tls.target, "");
  }
  g_tls.collector = nullptr;
  g_tls.current = nullptr;
  g_tls.target = nullptr;
}

void flush_span_profiling() {
  if (g_tls.collector != nullptr && g_tls.target != nullptr) {
    g_tls.collector->drain_into(*g_tls.target, "");
  }
}

bool span_profiling_enabled() noexcept {
  return g_tls.collector != nullptr;
}

SpanProfile* span_profiling_target() noexcept { return g_tls.target; }

std::string current_path() {
  if (g_tls.collector == nullptr || g_tls.current == nullptr) return "";
  std::vector<const char*> names;
  for (const detail::SpanNode* n = g_tls.current;
       n != nullptr && n->name != nullptr; n = n->parent) {
    names.push_back(n->name);
  }
  std::string path;
  for (std::size_t i = names.size(); i-- > 0;) {
    if (!path.empty()) path += ';';
    path += names[i];
  }
  return path;
}

void set_tick_source_for_testing(TickFn fn) noexcept {
  detail::g_tick.store(fn, std::memory_order_relaxed);
}

void set_alloc_source(AllocFn fn) noexcept {
  detail::g_alloc.store(fn, std::memory_order_relaxed);
}

}  // namespace wlan::obs::perf
