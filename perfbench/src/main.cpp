// holtwlan repository benchmark binary.
//
//   perfbench --workload <phy-link|city-shards|city-border> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|short]
//             [--rev <id>] [--trace-out <file>]
//
// Prints a header line, the workload's deterministic work counts and
// informational lines, then as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics of a
// separate traced run. perfbench/run.py builds this binary and is the
// interface to use; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "dsp/simd.h"
#include "harness.h"
#include "par/pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <phy-link|city-shards|city-border> "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|short] "
               "[--rev <id>] [--trace-out <file>]\n",
               argv0);
  std::exit(2);
}

std::string metrics_json(const Outcome& out) {
  std::string s = "{";
  for (const Outcome::Metric& m : out.metrics) {
    if (s.size() > 1) s += ',';
    s += '"' + m.name + "\":" +
         JsonObject().add("value", m.value).add("unit", m.unit).str();
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string rev = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage(argv[0]);
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--size") {
        if (v != "full" && v != "short") usage(argv[0]);
        opt.size = v == "full" ? Size::kFull : Size::kShort;
      } else if (a == "--rev") {
        rev = v;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage(argv[0]);

  // Timings come from an optimized build only.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build (asserts %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts ? "on" : "off");
    return 2;
  }

  // Every workload runs at --jobs = nproc.
  const unsigned nproc = wlan::par::ThreadPool::hardware_jobs();
  opt.jobs = nproc;
  wlan::par::set_default_jobs(opt.jobs);

  print_line(
      "header",
      JsonObject()
          .add("workload", opt.workload)
          .add("seed", opt.seed)
          .add("size", std::string(opt.size == Size::kFull ? "full" : "short"))
          .add("trace", static_cast<std::uint64_t>(opt.trace))
          .add("rev", rev)
          .add("nproc", static_cast<std::uint64_t>(nproc))
          .add("jobs", static_cast<std::uint64_t>(opt.jobs))
          .add("build_type", build_type)
          .add("simd_isa", std::string(wlan::dsp::simd::isa_name(
                               wlan::dsp::simd::compiled_isa())))
          .add("compiler", std::string(PERFBENCH_COMPILER)));

  Tracer tracer(opt.trace);
  Outcome out;
  try {
    if (opt.workload == "phy-link") {
      out = run_phy_link(opt, tracer);
    } else if (opt.workload == "city-shards") {
      out = run_city_shards(opt, tracer);
    } else if (opt.workload == "city-border") {
      out = run_city_border(opt, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.trace && !opt.trace_out.empty()) {
    if (!tracer.write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics_json(out).c_str());
  return 0;
}
