// EXT-ABS — The link-to-system abstraction predicts waveform PER.
//
// The network simulator cannot afford milliseconds of waveform DSP per
// frame; it runs on EESM effective SNR + calibrated AWGN curves instead
// (core/abstraction.h, net/errormodel.h). This bench validates that
// shortcut against ground truth: for every 802.11a/g MCS and two
// TGn-style delay profiles, the realization-averaged predicted PER must
// track the measured waveform PER (fresh TDL per packet, LTF channel
// estimation at the receiver) across the waterfall — and quantifies how
// many orders of magnitude cheaper the prediction is.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/wlan.h"
#include "net/errormodel.h"

int main(int argc, char** argv) {
  using namespace wlan;
  namespace bu = benchutil;
  bu::args(argc, argv);

  bu::title("EXT-ABS: EESM/PER abstraction vs waveform simulation",
            "effective-SNR mapping onto calibrated AWGN curves predicts the "
            "waveform simulator's PER across the full OFDM MCS ladder and "
            "multipath severities, at a tiny fraction of the cost");

  constexpr double kAwgnMid[8] = {1.2,  3.1,  3.1,  6.8,
                                  9.2, 12.9, 17.0, 18.6};
  constexpr std::size_t kPackets = 250;
  constexpr std::size_t kRealizations = 300;
  constexpr std::size_t kPsdu = 500;

  double max_abs_err = 0.0;
  double sum_sq_err = 0.0;
  std::size_t points = 0;

  for (const auto profile : {channel::DelayProfile::kResidential,
                             channel::DelayProfile::kOffice}) {
    const char* pname =
        profile == channel::DelayProfile::kResidential ? "residential"
                                                       : "office";
    bu::section(pname);
    std::printf("%6s %9s %11s %11s %9s\n", "mcs", "snr(dB)", "predicted",
                "measured", "|err|");
    std::vector<double> xs;
    std::vector<double> pred_series;
    std::vector<double> meas_series;
    for (std::size_t m = 0; m < 8; ++m) {
      const auto mcs = static_cast<phy::OfdmMcs>(m);
      for (const double off : {3.0, 6.0}) {
        const double snr = kAwgnMid[m] + off;
        Rng rng(7);
        double predicted = 0.0;
        for (std::size_t r = 0; r < kRealizations; ++r) {
          const channel::Tdl tdl = channel::make_tdl(rng, profile, 20e6);
          predicted += predict_ofdm_per(mcs, tdl, snr, kPsdu);
        }
        predicted /= static_cast<double>(kRealizations);
        Rng link_rng(1000 + m);
        const LinkResult meas = run_ofdm_link(mcs, kPsdu, kPackets, snr,
                                              link_rng,
                                              ChannelSpec::tdl(profile));
        const double err = std::abs(predicted - meas.per());
        max_abs_err = std::max(max_abs_err, err);
        sum_sq_err += err * err;
        ++points;
        xs.push_back(static_cast<double>(m) + off / 10.0);
        pred_series.push_back(predicted);
        meas_series.push_back(meas.per());
        std::printf("%6zu %9.1f %11.3f %11.3f %9.3f\n", m, snr, predicted,
                    meas.per(), err);
      }
    }
    char name[64];
    std::snprintf(name, sizeof name, "predicted_per_%s", pname);
    bu::series(name, "mcs_plus_offset", xs, "per", pred_series);
    std::snprintf(name, sizeof name, "measured_per_%s", pname);
    bu::series(name, "mcs_plus_offset", xs, "per", meas_series);
  }
  const double rms_err = std::sqrt(sum_sq_err / static_cast<double>(points));

  // HT spot check (20 MHz, long GI, BCC): same machinery, 52-tone grid.
  bu::section("HT spot check (office profile)");
  constexpr double kHtMid[8] = {-0.45, 2.6, 5.1, 7.9, 11.4, 15.1, 16.6, 18.0};
  double ht_max_err = 0.0;
  for (const unsigned m : {0u, 3u, 6u}) {
    const double snr = kHtMid[m] + 5.0;
    Rng rng(7);
    double predicted = 0.0;
    for (std::size_t r = 0; r < kRealizations; ++r) {
      const channel::Tdl tdl =
          channel::make_tdl(rng, channel::DelayProfile::kOffice, 20e6);
      predicted += predict_ht_per(m, tdl, snr, kPsdu);
    }
    predicted /= static_cast<double>(kRealizations);
    phy::HtConfig hc;
    hc.mcs = m;
    Rng link_rng(2000 + m);
    const LinkResult meas = run_ht_link(hc, kPsdu, kPackets, snr, link_rng,
                                        channel::DelayProfile::kOffice);
    const double err = std::abs(predicted - meas.per());
    ht_max_err = std::max(ht_max_err, err);
    std::printf("  mcs %u @ %5.1f dB: predicted %.3f measured %.3f\n", m,
                snr, predicted, meas.per());
  }

  // Cost: a PerTable lookup (the netsim hot path) vs one waveform packet.
  bu::section("cost");
  net::ErrorModelConfig emc;
  emc.model = net::RxModel::kPerModel;
  Rng model_rng(3);
  const net::LinkPerModel model(mac::PhyGeneration::kOfdm, 24.0, 1028, emc,
                                model_rng);
  constexpr std::size_t kLookups = 2'000'000;
  double acc = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    acc += model.per(5.0 + static_cast<double>(i % 400) * 0.06,
                     i % model.realizations());
  }
  const auto t1 = std::chrono::steady_clock::now();
  Rng wf_rng(4);
  run_ofdm_link(phy::OfdmMcs::k24Mbps, kPsdu, 64, 12.0, wf_rng);
  const auto t2 = std::chrono::steady_clock::now();
  const double ns_lookup =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(kLookups);
  const double us_packet =
      std::chrono::duration<double, std::micro>(t2 - t1).count() / 64.0;
  const double speedup = us_packet * 1e3 / std::max(ns_lookup, 1e-3);
  std::printf("  PER lookup   : %8.1f ns (checksum %.3f)\n", ns_lookup,
              acc / static_cast<double>(kLookups));
  std::printf("  waveform pkt : %8.1f us\n", us_packet);
  std::printf("  ratio        : %8.0fx\n", speedup);

  bu::metric("max_abs_per_error", max_abs_err);
  bu::metric("rms_per_error", rms_err);
  bu::metric("ht_max_abs_per_error", ht_max_err);
  // The work is deterministic and gated; its wall-clock cost is not.
  bu::metric("lookups", static_cast<double>(kLookups));
  bu::info("per_lookup_ns", ns_lookup);
  bu::info("speedup_vs_waveform", speedup);

  const bool ok = max_abs_err < 0.2 && rms_err < 0.1 && ht_max_err < 0.25 &&
                  speedup > 1e3;
  bu::verdict(ok,
              "abstraction tracks the waveform PER (max |err| %.3f, rms "
              "%.3f over %zu OFDM points; HT max %.3f) at %.0fx less cost "
              "per reception decision",
              max_abs_err, rms_err, points, ht_max_err, speedup);
  return ok ? 0 : 1;
}
