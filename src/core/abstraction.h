// Link-to-system abstraction: EESM effective SNR and fast PER prediction.
//
// Full waveform simulation is the ground truth but costs milliseconds per
// packet; network-scale studies (mesh, DCF with many stations) need PER
// in nanoseconds. The standard bridge — used by the 802.11n proposal
// evaluations themselves — is the Exponential Effective SNR Mapping:
// compress the per-subcarrier SNRs of a frequency-selective realization
// into one AWGN-equivalent SNR, then look up an AWGN PER curve.
//
// Three curve families are calibrated against this library's own waveform
// waterfalls (all at the 500-byte reference PSDU; `scale_per_to_length`
// converts to arbitrary sizes):
//   - OFDM (802.11a/g), all eight MCS          — bench_c4 waterfalls;
//   - DSSS/CCK (802.11/802.11b), 1-11 Mbps     — bench_c1/c3 modems;
//   - HT (802.11n, 20 MHz, long GI, BCC), MCS 0-7 — HtPhy flat channel.
//
// `PerTable` precomputes any PER-vs-SNR curve on a dB grid so hot paths
// (the network simulator decides one reception per frame) pay a clamped
// linear interpolation instead of exp/log evaluations.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>

#include "channel/fading.h"
#include "common/check.h"
#include "common/types.h"
#include "phy/ofdm.h"

namespace wlan {

/// EESM: snr_eff = -beta * ln( mean_k exp(-snr_k / beta) ), all linear.
/// Inputs and output in dB. Evaluated with a log-sum-exp shift so large
/// tone SNRs (where exp(-snr/beta) underflows to 0) still produce a
/// finite effective SNR: the result is always within
/// [min_k snr_k, min_k snr_k + beta * ln(N)] (linear scale).
double eesm_effective_snr_db(std::span<const double> tone_snrs_db, double beta);

/// Batched EESM over one frozen realization: for each mean SNR in
/// `mean_snrs_db`, the effective SNR of the tone set
/// {mean + gains_db[k]}. Writes `out_db[i]` for `mean_snrs_db[i]`
/// (sizes must match). Equivalent to calling `eesm_effective_snr_db`
/// per mean, but the per-tone dB->linear conversions are hoisted out of
/// the sweep — the tone SNR at mean m is lin(m) * lin(g_k), and since
/// the mapping is monotone the worst tone is the smallest gain for
/// every mean — so a sweep point costs one exp per tone instead of two.
/// Agrees with the scalar form to floating-point rounding (not bitwise).
void eesm_effective_snr_grid_db(std::span<const double> gains_db, double beta,
                                std::span<const double> mean_snrs_db,
                                std::span<double> out_db);

/// Calibrated beta per OFDM MCS (grows with constellation density).
double eesm_beta(phy::OfdmMcs mcs);

/// Calibrated beta per HT base MCS (0..7; same constellation ladder).
double ht_eesm_beta(unsigned mcs);

/// Reference PSDU size of the calibrated AWGN curves.
inline constexpr std::size_t kPerRefPsduBytes = 500;

/// Converts a PER measured at `ref_bytes` PSDUs to an `psdu_bytes` PSDU
/// under the independent-error assumption: 1 - (1 - p)^(L / L_ref).
/// Computed via log1p/expm1 so tiny reference PERs stay accurate.
double scale_per_to_length(double per_ref, std::size_t psdu_bytes,
                           std::size_t ref_bytes = kPerRefPsduBytes);

/// AWGN PER reference curve for an OFDM MCS (logistic fit to this
/// library's measured waterfalls at 500-byte PSDUs), scaled to
/// `psdu_bytes`.
double ofdm_awgn_per(phy::OfdmMcs mcs, double snr_db,
                     std::size_t psdu_bytes = kPerRefPsduBytes);

/// DSSS/CCK rates with calibrated AWGN curves.
enum class DsssCckRate { k1Mbps, k2Mbps, k5_5Mbps, k11Mbps };

/// AWGN PER for a DSSS/CCK rate (logistic fit to the Barker/CCK modem
/// waterfalls at 500-byte PSDUs), scaled to `psdu_bytes`.
double dsss_awgn_per(DsssCckRate rate, double snr_db,
                     std::size_t psdu_bytes = kPerRefPsduBytes);

/// AWGN PER for an HT base MCS 0..7 (20 MHz, long GI, BCC, MMSE; fit to
/// HtPhy flat-channel waterfalls at 500-byte PSDUs), scaled to
/// `psdu_bytes`.
double ht_awgn_per(unsigned mcs, double snr_db,
                   std::size_t psdu_bytes = kPerRefPsduBytes);

/// Fast PER prediction for one TDL realization at a mean SNR: per-tone
/// SNRs from the channel's frequency response -> EESM -> AWGN curve.
double predict_ofdm_per(phy::OfdmMcs mcs, const channel::Tdl& tdl,
                        double mean_snr_db,
                        std::size_t psdu_bytes = kPerRefPsduBytes);

/// Same for an HT base MCS (20 MHz, 52 data tones, single stream).
double predict_ht_per(unsigned mcs, const channel::Tdl& tdl,
                      double mean_snr_db,
                      std::size_t psdu_bytes = kPerRefPsduBytes);

/// Per-tone power gains (dB) of one TDL realization on the OFDM 48-tone
/// grid. Add a mean SNR to get the tone SNRs EESM consumes; callers that
/// sweep many mean SNRs over one frozen realization (PER-table builds)
/// extract the gains once instead of redoing the FFT per sweep point.
RVec ofdm_tone_gains_db(const channel::Tdl& tdl);

/// Same on the HT 20 MHz (52-tone) grid.
RVec ht20_tone_gains_db(const channel::Tdl& tdl);

/// EESM effective SNR of one TDL realization at a mean SNR over the OFDM
/// (48-tone) grid.
double eesm_effective_snr_for_tdl_db(const channel::Tdl& tdl,
                                     double mean_snr_db, double beta);

/// Same over the HT 20 MHz (52-tone) grid.
double ht_eesm_effective_snr_for_tdl_db(const channel::Tdl& tdl,
                                        double mean_snr_db, double beta);

/// Clamped linear interpolation of PER samples `per` (non-empty) on a
/// uniform dB grid starting at `min_db` with spacing 1 / `inv_step` —
/// the lookup every precomputed PER table shares. Infinite SNRs clamp
/// to the grid ends; a NaN SNR would slip past both clamps into an
/// out-of-range index, so it is rejected with ContractError.
inline double interpolate_per(std::span<const double> per, double min_db,
                              double inv_step, double snr_db) {
  check(!std::isnan(snr_db), "PER lookup at a NaN SNR");
  const double pos = (snr_db - min_db) * inv_step;
  if (pos <= 0.0) return per.front();
  const double last = static_cast<double>(per.size() - 1);
  if (pos >= last) return per.back();
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return per[i] + frac * (per[i + 1] - per[i]);
}

/// Precomputed PER-vs-SNR curve on a uniform dB grid with clamped linear
/// interpolation — the hot-path representation of any of the curves
/// above (or of an EESM-composed curve for a frozen fading realization).
class PerTable {
 public:
  PerTable() = default;

  /// Samples `per_at(snr_db)` on [min_db, max_db] at `step_db` spacing.
  template <class Fn>
  PerTable(double min_db, double max_db, double step_db, Fn&& per_at)
      : min_db_(min_db), inv_step_(1.0 / step_db) {
    check(step_db > 0.0 && max_db > min_db, "PerTable requires a valid grid");
    const auto n =
        static_cast<std::size_t>((max_db - min_db) / step_db + 0.5) + 1;
    per_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      per_.push_back(per_at(min_db + static_cast<double>(i) * step_db));
    }
  }

  /// Wraps already-sampled PER values on a uniform grid starting at
  /// `min_db` with `step_db` spacing — for builders that batch-evaluate
  /// the whole grid (e.g. `eesm_effective_snr_grid_db`) before wrapping.
  PerTable(double min_db, double step_db, RVec per_values)
      : min_db_(min_db), inv_step_(1.0 / step_db), per_(std::move(per_values)) {
    check(step_db > 0.0 && !per_.empty(), "PerTable requires a valid grid");
  }

  bool empty() const { return per_.empty(); }
  std::size_t size() const { return per_.size(); }

  /// PER at `snr_db`: linear interpolation, clamped to the grid ends.
  /// A NaN SNR throws ContractError (see `interpolate_per`).
  double lookup(double snr_db) const {
    check(!per_.empty(), "PerTable::lookup on an empty table");
    return interpolate_per(per_, min_db_, inv_step_, snr_db);
  }

 private:
  double min_db_ = 0.0;
  double inv_step_ = 1.0;
  RVec per_;
};

}  // namespace wlan
