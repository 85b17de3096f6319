// phy-link: a PER-waterfall sweep the way the C4/C7 link benches run it.
//
// Two runners, four SNR points each, a fixed packet count per point:
// run_ofdm_link at 54 Mbps over the TGn office TDL, and run_ht_link at
// MCS 12 (2x2, 16-QAM 3/4, LDPC). The points span PER ~0.5 down to
// ~0.02, so the low-SNR LDPC points (several decoder iterations per
// codeword) and the high-SNR ones (early exit) both carry weight. All
// time goes to the phy/dsp/channel kernels under par::montecarlo; no
// net or sim code runs.
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/link.h"
#include "harness.h"
#include "mac/timing.h"
#include "phy/ht.h"
#include "phy/ofdm.h"

namespace perfbench {
namespace {

using wlan::LinkResult;
using wlan::Rng;

constexpr std::size_t kPsduBytes = 1000;
constexpr auto kProfile = wlan::channel::DelayProfile::kOffice;

enum class Kind { kOfdm, kHt };

struct Runner {
  Kind kind;
  const char* name;
  std::vector<double> snr_db;  ///< ascending
  std::size_t packets;         ///< per point
};

wlan::phy::HtConfig ht_config() {
  wlan::phy::HtConfig cfg;
  cfg.mcs = 12;  // 2 spatial streams, 16-QAM 3/4
  cfg.coding = wlan::phy::HtCoding::kLdpc;
  return cfg;
}

std::vector<Runner> runners(Size size) {
  const bool full = size == Size::kFull;
  return {
      {Kind::kOfdm, "ofdm", {21.0, 25.0, 29.0, 33.0}, full ? 400u : 160u},
      {Kind::kHt, "ht", {16.0, 20.0, 24.0, 28.0}, full ? 200u : 160u},
  };
}

LinkResult run_point(Kind kind, double snr_db, std::size_t packets, Rng& rng,
                     Tracer& tracer) {
  if (kind == Kind::kOfdm) {
    const Tracer::Scope span(tracer, "core.run_ofdm_link");
    return wlan::run_ofdm_link(wlan::phy::OfdmMcs::k54Mbps, kPsduBytes,
                               packets, snr_db, rng,
                               wlan::ChannelSpec::tdl(kProfile));
  }
  const Tracer::Scope span(tracer, "core.run_ht_link");
  return wlan::run_ht_link(ht_config(), kPsduBytes, packets, snr_db, rng,
                           kProfile);
}

/// Simulated node-seconds of one packet: transmitter and receiver over
/// the PPDU airtime.
struct Airtime {
  double ofdm_s = 0.0;
  double ht_s = 0.0;
  double of(Kind kind) const { return kind == Kind::kOfdm ? ofdm_s : ht_s; }
};

/// Builds the PHYs (their code and interleaver tables) and makes one
/// small warm-up call per runner, so the timed sweep starts with the
/// pool, the lazily built LDPC codes and the per-thread workspaces warm.
Airtime setup(const Options& opt, Tracer& tracer) {
  const Tracer::Scope span(tracer, "phy.setup");
  Airtime air;
  {
    const Tracer::Scope build(tracer, "phy.build_phys");
    const wlan::phy::OfdmPhy ofdm(wlan::phy::OfdmMcs::k54Mbps);
    const wlan::phy::HtPhy ht(ht_config());
    air.ofdm_s = ofdm.ppdu_duration_s(kPsduBytes);
    air.ht_s = ht.ppdu_duration_s(kPsduBytes);
  }
  // Warm up at the highest SNR from a fixed seed: decoding there rarely
  // iterates, so setup does the same work for every --seed.
  Rng warm;
  const std::size_t warm_packets = 4 * static_cast<std::size_t>(opt.jobs);
  for (const Runner& r : runners(opt.size)) {
    const LinkResult res =
        run_point(r.kind, r.snr_db.back(), warm_packets, warm, tracer);
    if (res.packets != warm_packets)
      throw std::runtime_error("warm-up call counted the wrong packets");
  }
  return air;
}

struct Sweep {
  std::vector<std::vector<LinkResult>> results;  ///< [runner][point]
  double wall_s = 0.0;
  std::uint64_t packets = 0;
  double node_s = 0.0;
};

/// True when any PER rise from `lo` to the next SNR point `hi` is within
/// binomial noise: 4 standard errors of the difference at the pooled PER.
bool rise_within_noise(const LinkResult& lo, const LinkResult& hi) {
  const double n1 = static_cast<double>(lo.packets);
  const double n2 = static_cast<double>(hi.packets);
  const double p = static_cast<double>(lo.packet_errors + hi.packet_errors) /
                   (n1 + n2);
  const double se = std::sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2));
  return hi.per() <= lo.per() + 4.0 * se;
}

/// Runs the whole waterfall once and checks every call. A call fails
/// when it throws, counts other than the requested packets, or belongs
/// to a runner whose curve is not a waterfall (PER rising with SNR
/// beyond binomial noise, lowest point PER <= 0.3, highest >= 0.05), or
/// whose counts differ from the first sweep of this process (same seed,
/// same inputs).
Sweep sweep(const Options& opt, const Airtime& air, Tracer& tracer,
            Outcome& out, const Sweep* reference) {
  Sweep s;
  const std::vector<Runner> rs = runners(opt.size);
  Rng rng(opt.seed);
  const Tracer::Scope span(tracer, "phy.sweep");
  for (std::size_t ri = 0; ri < rs.size(); ++ri) {
    const Runner& r = rs[ri];
    std::vector<LinkResult> curve;
    std::vector<bool> call_ok;
    for (const double snr : r.snr_db) {
      LinkResult res;
      bool ok = true;
      try {
        res = run_point(r.kind, snr, r.packets, rng, tracer);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "phy-link: %s at %.1f dB threw: %s\n", r.name,
                     snr, e.what());
        ok = false;
      }
      ok = ok && res.packets == r.packets;
      s.packets += res.packets;
      s.node_s += 2.0 * air.of(r.kind) * static_cast<double>(res.packets);
      curve.push_back(res);
      call_ok.push_back(ok);
    }
    bool curve_ok = curve.front().per() > 0.3 && curve.back().per() < 0.05;
    for (std::size_t i = 0; i + 1 < curve.size(); ++i)
      curve_ok = curve_ok && rise_within_noise(curve[i], curve[i + 1]);
    if (reference) {
      for (std::size_t i = 0; i < curve.size(); ++i) {
        curve_ok = curve_ok && curve[i].packet_errors ==
                                   reference->results[ri][i].packet_errors;
      }
    }
    if (!curve_ok) {
      std::fprintf(stderr, "phy-link: %s curve failed its check\n", r.name);
    }
    for (const bool ok : call_ok) out.call(ok && curve_ok);
    s.results.push_back(std::move(curve));
  }
  s.wall_s = span.elapsed_s();
  return s;
}

void print_curves(const Options& opt, const Sweep& s) {
  const std::vector<Runner> rs = runners(opt.size);
  for (std::size_t ri = 0; ri < rs.size(); ++ri) {
    for (std::size_t i = 0; i < rs[ri].snr_db.size(); ++i) {
      const LinkResult& res = s.results[ri][i];
      print_line("per", JsonObject()
                            .add("runner", std::string(rs[ri].name))
                            .add("snr_db", rs[ri].snr_db[i])
                            .add("packets", res.packets)
                            .add("packet_errors", res.packet_errors)
                            .add("per", res.per()));
    }
  }
  print_line("counts", JsonObject()
                           .add("seed", opt.seed)
                           .add("packets", s.packets)
                           .add("calls", static_cast<std::uint64_t>(
                                             rs.size() * rs[0].snr_db.size())));
}

}  // namespace

Outcome run_phy_link(const Options& opt, Tracer& tracer) {
  Outcome out;
  // Set up before every sweep, so the setup median samples the whole
  // measuring window, then repeat the identical sweep until the window
  // is used up (at least once). A traced run makes one plain sweep.
  std::vector<double> setup_s;
  Airtime air;
  std::vector<Sweep> sweeps;
  const double t_start = now_s();
  do {
    tracer.next_run();
    const double t0 = now_s();
    air = setup(opt, tracer);
    setup_s.push_back(now_s() - t0);
    tracer.next_run();
    sweeps.push_back(
        sweep(opt, air, tracer, out, sweeps.empty() ? nullptr : &sweeps[0]));
    if (opt.trace) break;
  } while (now_s() - t_start + setup_s.back() + sweeps.back().wall_s <=
           opt.seconds);
  print_curves(opt, sweeps[0]);

  if (!opt.trace) {
    std::vector<double> pps;
    std::vector<double> nsps;
    std::vector<double> walls;
    for (const Sweep& s : sweeps) {
      pps.push_back(static_cast<double>(s.packets) / s.wall_s);
      nsps.push_back(s.node_s / s.wall_s);
      walls.push_back(s.wall_s);
    }
    print_line("reps", JsonObject().add("setup_s", setup_s).add("wall_s", walls));
    out.metric("setup_s", median(setup_s), "s");
    out.metric("packets_per_s", median(pps), "1/s");
    out.metric("node_s_per_s", median(nsps), "s/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced pass: the same sweep with the library's span profiler and
  // pool telemetry armed.
  tracer.next_run();
  const std::uint32_t traced_run = tracer.run();
  LibraryProfile lib;
  const Sweep traced = sweep(opt, air, tracer, out, &sweeps[0]);
  lib.stop(traced.wall_s);

  std::uint64_t ofdm_packets = 0;
  std::uint64_t ht_packets = 0;
  const std::vector<Runner> rs = runners(opt.size);
  for (std::size_t ri = 0; ri < rs.size(); ++ri) {
    for (const LinkResult& res : traced.results[ri])
      (rs[ri].kind == Kind::kOfdm ? ofdm_packets : ht_packets) += res.packets;
  }
  out.metric("phy.ofdm.packets_per_s",
             static_cast<double>(ofdm_packets) /
                 tracer.total_s("core.run_ofdm_link", traced_run),
             "1/s");
  out.metric("phy.ht.packets_per_s",
             static_cast<double>(ht_packets) /
                 tracer.total_s("core.run_ht_link", traced_run),
             "1/s");
  lib.add_kernel_metrics(out);
  lib.add_pool_metrics(out);
  out.metric("obs.trace_overhead", traced.wall_s / sweeps[0].wall_s, "ratio");
  return out;
}

}  // namespace perfbench
