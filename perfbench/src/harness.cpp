#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "par/pool.h"

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double peak_rss_mb() {
  // VmHWM first: Linux carries ru_maxrss across fork and exec, so a
  // process started from a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  start_ns_ = now_ns();
  if (!tracer_.on_) return;
  saved_parent_ = tracer_.open_;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(
      {std::move(name), start_ns_, 0, saved_parent_, tracer_.run_});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.open_ = saved_parent_;
}

double Tracer::Scope::elapsed_s() const {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

double Tracer::total_s(const std::string& name, std::uint32_t run) const {
  double s = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name && span.run == run)
      s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return s;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}\n";
  }
  return static_cast<bool>(out);
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + k + "\":";
}

namespace {

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

}  // namespace

JsonObject& JsonObject::add(const std::string& k, double value) {
  key(k);
  body_ += number(value);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k,
                            const std::vector<double>& values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) body_ += ',';
    body_ += number(values[i]);
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

void print_line(const std::string& tag, const JsonObject& object) {
  std::printf("{\"%s\":%s}\n", tag.c_str(), object.str().c_str());
  std::fflush(stdout);
}

LibraryProfile::LibraryProfile() {
  wlan::par::set_telemetry_enabled(true);
  wlan::par::default_pool().reset_telemetry();
  wlan::obs::perf::enable_span_profiling(profile_);
}

LibraryProfile::~LibraryProfile() {
  if (armed_) stop(0.0);
}

void LibraryProfile::stop(double wall_s) {
  if (!armed_) return;
  armed_ = false;
  wlan::obs::perf::disable_span_profiling();
  const wlan::par::PoolTelemetry pool = wlan::par::default_pool().telemetry();
  wlan::par::set_telemetry_enabled(false);
  const wlan::par::LaneTelemetry total = pool.totals();
  utilization_ = pool.utilization(wall_s);
  imbalance_ = pool.imbalance();
  tasks_ = static_cast<double>(total.tasks);
  steals_ = static_cast<double>(total.steal_successes);
  park_s_ = static_cast<double>(total.park_ns) * 1e-9;
}

double LibraryProfile::self_s(const std::string& leaf) const {
  double ns = 0.0;
  for (const auto& [path, stats] : profile_.spans()) {
    const std::size_t cut = path.rfind(';');
    const std::string name =
        cut == std::string::npos ? path : path.substr(cut + 1);
    if (name == leaf) ns += static_cast<double>(stats.self_ns());
  }
  return ns * 1e-9;
}

void LibraryProfile::add_kernel_metrics(Outcome& out) const {
  out.metric("phy.span.viterbi_s", self_s("viterbi"), "s");
  out.metric("phy.span.ldpc_decode_s", self_s("ldpc_decode"), "s");
  out.metric("phy.span.ofdm_tx_s", self_s("ofdm.tx"), "s");
  out.metric("phy.span.ofdm_rx_s", self_s("ofdm.rx"), "s");
  out.metric("phy.span.ht_link_s", self_s("ht.link"), "s");
  out.metric("dsp.span.fft_s", self_s("fft"), "s");
  out.metric("channel.span.fading_taps_s", self_s("fading_taps"), "s");
}

void LibraryProfile::add_pool_metrics(Outcome& out) const {
  out.metric("par.utilization", utilization_, "ratio");
  out.metric("par.imbalance", imbalance_, "ratio");
  out.metric("par.tasks", tasks_, "count");
  out.metric("par.steals", steals_, "count");
  out.metric("par.park_s", park_s_, "s");
}

}  // namespace perfbench
