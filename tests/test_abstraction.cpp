// Tests for the EESM link abstraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "channel/awgn.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/abstraction.h"
#include "core/link.h"

namespace wlan {
namespace {

TEST(Eesm, FlatChannelIsIdentity) {
  const RVec snrs(48, 14.0);
  for (const double beta : {1.5, 7.0, 22.0}) {
    EXPECT_NEAR(eesm_effective_snr_db(snrs, beta), 14.0, 1e-9);
  }
}

TEST(Eesm, EffectiveSnrBelowMeanForSelectiveChannels) {
  // Jensen: the exponential average penalizes dips more than peaks help.
  RVec snrs;
  for (int i = 0; i < 24; ++i) {
    snrs.push_back(10.0);
    snrs.push_back(20.0);
  }
  const double eff = eesm_effective_snr_db(snrs, 2.5);
  EXPECT_LT(eff, 15.0);
  EXPECT_GT(eff, 10.0);
}

TEST(Eesm, LargerBetaIsMoreForgiving) {
  RVec snrs;
  for (int i = 0; i < 24; ++i) {
    snrs.push_back(5.0);
    snrs.push_back(25.0);
  }
  EXPECT_LT(eesm_effective_snr_db(snrs, 1.5), eesm_effective_snr_db(snrs, 22.0));
}

TEST(Eesm, DominatedByWorstToneAtSmallBeta) {
  RVec snrs(47, 30.0);
  snrs.push_back(3.0);
  const double eff = eesm_effective_snr_db(snrs, 0.5);
  // One deep notch pins the effective SNR far below the mean.
  EXPECT_LT(eff, 25.0);
}

TEST(Eesm, BetaGrowsWithConstellation) {
  EXPECT_LT(eesm_beta(phy::OfdmMcs::k6Mbps), eesm_beta(phy::OfdmMcs::k24Mbps));
  EXPECT_LT(eesm_beta(phy::OfdmMcs::k24Mbps), eesm_beta(phy::OfdmMcs::k54Mbps));
}

TEST(Eesm, Validation) {
  EXPECT_THROW(eesm_effective_snr_db({}, 1.0), ContractError);
  const RVec snrs(4, 10.0);
  EXPECT_THROW(eesm_effective_snr_db(snrs, 0.0), ContractError);
}

TEST(Eesm, HighSnrStaysFinite) {
  // The naive exponential average underflows to 0 already at ~31 dB tone
  // SNRs for beta = 1.5 (exp(-1259) == 0), turning -beta*ln(0) into +inf
  // or NaN downstream. The log-sum-exp form must stay finite and exact.
  for (const double snr : {35.0, 60.0, 100.0, 300.0}) {
    const RVec flat(48, snr);
    const double eff = eesm_effective_snr_db(flat, 1.5);
    EXPECT_TRUE(std::isfinite(eff));
    EXPECT_NEAR(eff, snr, 1e-9);
  }
  // Mixed huge SNRs: still finite, still pinned near the worst tone.
  RVec mixed(47, 250.0);
  mixed.push_back(40.0);
  const double eff = eesm_effective_snr_db(mixed, 1.5);
  EXPECT_TRUE(std::isfinite(eff));
  EXPECT_GT(eff, 40.0 - 1e-6);
  EXPECT_LT(eff, 60.0);
}

TEST(ScalePerToLength, IdentityAtReferenceLength) {
  for (const double p : {0.0, 1e-9, 0.3, 0.999, 1.0}) {
    EXPECT_EQ(scale_per_to_length(p, kPerRefPsduBytes), p);
  }
}

TEST(ScalePerToLength, MatchesClosedForm) {
  // 1 - (1 - p)^(L / L_ref), checked against direct evaluation where the
  // direct form is numerically safe.
  EXPECT_NEAR(scale_per_to_length(0.2, 1000, 500),
              1.0 - 0.8 * 0.8, 1e-12);
  EXPECT_NEAR(scale_per_to_length(0.36, 250, 500), 0.2, 1e-12);
  // Tiny reference PERs scale ~linearly (where (1-p)^r would lose all
  // precision in float math done naively).
  EXPECT_NEAR(scale_per_to_length(1e-12, 1500, 500), 3e-12, 1e-14);
}

TEST(ScalePerToLength, MonotoneInLengthAndBounded) {
  double prev = 0.0;
  for (const std::size_t bytes : {50, 200, 500, 1000, 1500, 4000}) {
    const double p = scale_per_to_length(0.1, bytes);
    EXPECT_GE(p, prev);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
  EXPECT_EQ(scale_per_to_length(1.0, 42), 1.0);
  EXPECT_EQ(scale_per_to_length(0.0, 4000), 0.0);
  EXPECT_THROW(scale_per_to_length(0.5, 0), ContractError);
}

TEST(AwgnPerModel, LongerFramesFailMoreOften) {
  for (const double snr : {8.0, 9.2, 10.5}) {
    const double short_per = ofdm_awgn_per(phy::OfdmMcs::k24Mbps, snr, 100);
    const double ref_per = ofdm_awgn_per(phy::OfdmMcs::k24Mbps, snr);
    const double long_per = ofdm_awgn_per(phy::OfdmMcs::k24Mbps, snr, 1500);
    EXPECT_LT(short_per, ref_per);
    EXPECT_LT(ref_per, long_per);
  }
}

TEST(AwgnPerModel, MatchesMeasuredWaterfallShape) {
  // The logistic reference must agree with the waveform simulation at the
  // three SNRs per MCS where we checked it: deep failure, midpoint-ish,
  // and clean. Spot check 24 Mbps.
  EXPECT_GT(ofdm_awgn_per(phy::OfdmMcs::k24Mbps, 5.0), 0.95);
  EXPECT_LT(ofdm_awgn_per(phy::OfdmMcs::k24Mbps, 15.0), 0.05);
  const double mid = ofdm_awgn_per(phy::OfdmMcs::k24Mbps, 9.2);
  EXPECT_NEAR(mid, 0.5, 0.02);
}

TEST(AwgnPerModel, DsssCckCurvesOrderedByRate) {
  // Faster modulations need more SNR: at a fixed SNR the PER ranking
  // follows the rate ladder, and each curve crosses 0.5 at its midpoint.
  for (const double snr : {0.0, 3.0, 6.0}) {
    EXPECT_LE(dsss_awgn_per(DsssCckRate::k1Mbps, snr),
              dsss_awgn_per(DsssCckRate::k2Mbps, snr) + 1e-12);
    EXPECT_LE(dsss_awgn_per(DsssCckRate::k2Mbps, snr),
              dsss_awgn_per(DsssCckRate::k5_5Mbps, snr) + 1e-12);
    EXPECT_LE(dsss_awgn_per(DsssCckRate::k5_5Mbps, snr),
              dsss_awgn_per(DsssCckRate::k11Mbps, snr) + 1e-12);
  }
  EXPECT_NEAR(dsss_awgn_per(DsssCckRate::k1Mbps, -1.5), 0.5, 0.02);
  EXPECT_NEAR(dsss_awgn_per(DsssCckRate::k11Mbps, 7.3), 0.5, 0.02);
  EXPECT_GT(dsss_awgn_per(DsssCckRate::k11Mbps, 1.0), 0.95);
  EXPECT_LT(dsss_awgn_per(DsssCckRate::k1Mbps, 6.0), 0.05);
}

TEST(AwgnPerModel, HtCurvesOrderedByMcs) {
  for (unsigned mcs = 1; mcs < 8; ++mcs) {
    for (const double snr : {2.0, 8.0, 14.0}) {
      EXPECT_LE(ht_awgn_per(mcs - 1, snr), ht_awgn_per(mcs, snr) + 1e-12);
    }
  }
  EXPECT_NEAR(ht_awgn_per(4, 11.4), 0.5, 0.02);
  EXPECT_THROW(ht_awgn_per(8, 10.0), ContractError);
}

TEST(PerTable, MatchesSampledFunctionWithinInterpolation) {
  const auto curve = [](double snr) {
    return ofdm_awgn_per(phy::OfdmMcs::k24Mbps, snr);
  };
  const PerTable table(-5.0, 30.0, 0.25, curve);
  EXPECT_FALSE(table.empty());
  // On-grid points are exact; off-grid within the curvature error of a
  // 0.25 dB linear interpolation.
  EXPECT_EQ(table.lookup(9.25), curve(9.25));
  for (double snr = -4.9; snr < 29.9; snr += 0.137) {
    EXPECT_NEAR(table.lookup(snr), curve(snr), 2e-3);
  }
}

TEST(PerTable, ClampsOutsideGrid) {
  const PerTable table(0.0, 20.0, 0.5, [](double snr) {
    return ofdm_awgn_per(phy::OfdmMcs::k54Mbps, snr);
  });
  EXPECT_EQ(table.lookup(-40.0), table.lookup(0.0));
  EXPECT_EQ(table.lookup(90.0), table.lookup(20.0));
  EXPECT_THROW(PerTable().lookup(5.0), ContractError);
  EXPECT_THROW(PerTable(0.0, -1.0, 0.5, [](double) { return 0.0; }),
               ContractError);
}

TEST(PerTable, InfiniteSnrClampsAndNanIsRejected) {
  const PerTable table(0.0, 20.0, 0.5, [](double snr) {
    return ofdm_awgn_per(phy::OfdmMcs::k54Mbps, snr);
  });
  EXPECT_EQ(table.lookup(-std::numeric_limits<double>::infinity()),
            table.lookup(0.0));
  EXPECT_EQ(table.lookup(std::numeric_limits<double>::infinity()),
            table.lookup(20.0));
  // A NaN SNR would pass both clamps into an out-of-range index.
  EXPECT_THROW(table.lookup(std::numeric_limits<double>::quiet_NaN()),
               ContractError);
}

TEST(PredictPer, FlatUnitChannelMatchesAwgnCurve) {
  channel::Tdl tdl;
  tdl.taps = {Cplx{1.0, 0.0}};
  for (const double snr : {5.0, 10.0, 20.0}) {
    EXPECT_NEAR(predict_ofdm_per(phy::OfdmMcs::k24Mbps, tdl, snr),
                ofdm_awgn_per(phy::OfdmMcs::k24Mbps, snr), 1e-9);
  }
}

TEST(PredictPer, MonotoneInSnr) {
  Rng rng(1);
  const channel::Tdl tdl =
      channel::make_tdl(rng, channel::DelayProfile::kOffice, 20e6);
  double prev = 1.0;
  for (double snr = 0.0; snr <= 30.0; snr += 2.0) {
    const double per = predict_ofdm_per(phy::OfdmMcs::k36Mbps, tdl, snr);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(PredictPer, TracksFullSimulationAcrossRealizations) {
  // The abstraction's purpose: realizations the predictor calls bad must
  // actually fail more often in the waveform simulation. Compare mean
  // predicted PER with simulated PER over many TDL draws near the
  // waterfall.
  Rng rng(2);
  const phy::OfdmMcs mcs = phy::OfdmMcs::k24Mbps;
  const double snr = 13.0;
  double predicted = 0.0;
  int simulated_errors = 0;
  int packets = 0;
  for (int r = 0; r < 40; ++r) {
    Rng draw = rng.fork();
    const channel::Tdl tdl =
        channel::make_tdl(draw, channel::DelayProfile::kOffice, 20e6);
    predicted += predict_ofdm_per(mcs, tdl, snr);
    // Simulate a few packets over this exact realization by reusing the
    // fixed-channel path: TX, convolve, AWGN.
    const phy::OfdmPhy phy(mcs);
    for (int p = 0; p < 5; ++p) {
      const Bytes psdu = draw.random_bytes(500);
      CVec wave = phy.transmit(psdu);
      const double power = 52.0 / 4096.0;  // per-sample mean of the body
      CVec rx = tdl.apply(wave);
      const double nv = power / db_to_lin(snr);
      channel::add_awgn(rx, draw, nv);
      rx.resize(wave.size());
      if (phy.receive(rx, psdu.size(), nv) != psdu) ++simulated_errors;
      ++packets;
    }
  }
  predicted /= 40.0;
  const double simulated =
      static_cast<double>(simulated_errors) / static_cast<double>(packets);
  // Coarse agreement is the requirement (the published EESM calibrations
  // claim ~0.5 dB): both should sit in the same PER decade.
  EXPECT_NEAR(predicted, simulated, 0.25);
}

TEST(PredictPer, ToleranceSuiteAcrossAllMcsAndProfiles) {
  // Abstraction-vs-waveform validation across the whole OFDM ladder and
  // two TGn-style delay profiles: the realization-averaged predicted PER
  // must agree with the measured waveform PER (fresh TDL per packet) in
  // the fading-smeared waterfall region. Mid-waterfall AWGN SNR plus a
  // fading margin puts each point where both sides have signal.
  // Tolerance: the calibrated model's worst-case bias is ~0.13 of PER
  // (bench_abstraction, MCS0 residential) and both sides of the
  // comparison are sample means of a bimodal per-channel PER, so 0.22
  // leaves ~2 sigma of sampling headroom without admitting a broken
  // mapping (mid-waterfall PER moves ~0.15 per dB).
  constexpr std::array<double, 8> kAwgnMid = {1.2,  3.1,  3.1,  6.8,
                                              9.2, 12.9, 17.0, 18.6};
  constexpr std::size_t kPackets = 200;
  constexpr std::size_t kRealizations = 300;
  Rng rng(7);
  for (const channel::DelayProfile profile :
       {channel::DelayProfile::kResidential, channel::DelayProfile::kOffice}) {
    for (std::size_t m = 0; m < 8; ++m) {
      const auto mcs = static_cast<phy::OfdmMcs>(m);
      const double snr = kAwgnMid[m] + 4.0;
      double predicted = 0.0;
      for (std::size_t r = 0; r < kRealizations; ++r) {
        const channel::Tdl tdl = channel::make_tdl(rng, profile, 20e6);
        predicted += predict_ofdm_per(mcs, tdl, snr);
      }
      predicted /= static_cast<double>(kRealizations);
      Rng link_rng(1000 + m);
      const LinkResult measured =
          run_ofdm_link(mcs, kPerRefPsduBytes, kPackets, snr, link_rng,
                        ChannelSpec::tdl(profile));
      EXPECT_NEAR(predicted, measured.per(), 0.22)
          << "mcs=" << m << " profile=" << static_cast<int>(profile)
          << " snr=" << snr;
    }
  }
}

}  // namespace
}  // namespace wlan
