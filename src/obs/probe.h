// PHY link-quality probes: receiver-internal signal quality surfaced as
// (name, label) instruments.
//
// Aggregate bench verdicts (PER curves, throughput crossings) say *that*
// a link works; they do not say *how close to the edge* it is. These
// probes tap the receive chains at the three places an RF engineer would
// put a scope:
//
//  - EVM: per-OFDM-symbol RMS error between the equalized constellation
//    and the nearest ideal point (decision-directed, linear, 1.0 = error
//    as large as the symbol itself);
//  - post-equalizer SNR: the per-subcarrier SNR after channel
//    equalization (dB), the quantity rate adaptation actually sees —
//    frequency-selective fading shows up here as a wide histogram even
//    when the average SNR looks fine;
//  - |LLR| at the decoder input: small magnitudes mean the demapper is
//    guessing; the histogram shape separates "noisy but decodable" from
//    "erasure channel".
//
// Process-wide nullable histogram slots, off by default, armed by
// `enable_phy_probes(registry)`. A disabled probe costs the hot path one
// load + branch, like a disarmed span (obs/perf.h). Benches arm the probes behind --json and the histograms
// ride out in the standard registry snapshot.
#pragma once

#include <array>
#include <cstddef>

#include "obs/metrics.h"

namespace wlan::obs {

/// The instrumented probe points (chain x quantity).
enum class Probe : std::size_t {
  kOfdmEvm,         ///< 802.11a/g chain, per-symbol RMS EVM (linear)
  kOfdmPostEqSnr,   ///< 802.11a/g chain, per-subcarrier SNR (dB)
  kOfdmLlrAbs,      ///< 802.11a/g chain, |LLR| at Viterbi input
  kHtEvm,           ///< 802.11n chain, per-symbol per-stream RMS EVM
  kHtPostEqSnr,     ///< 802.11n chain, per-subcarrier post-MIMO SNR (dB)
  kHtLlrAbs,        ///< 802.11n chain, |LLR| at FEC input
};
inline constexpr std::size_t kProbeCount = 6;

/// Registry metric name, e.g. "probe.evm"; the chain rides in a label.
const char* probe_metric_name(Probe probe);
/// The "chain" label value, "ofdm" or "ht".
const char* probe_chain_label(Probe probe);

namespace detail {
extern std::array<Histogram*, kProbeCount> g_probe_hist;
}  // namespace detail

/// Histogram slot for `probe`; null while probing is disabled. This is
/// the only call on the receive hot path.
inline Histogram* probe_histogram(Probe probe) noexcept {
  return detail::g_probe_hist[static_cast<std::size_t>(probe)];
}

/// Registers the probe histograms in `registry` as
/// ("probe.evm"|"probe.post_eq_snr_db"|"probe.llr_abs", chain=ofdm|ht)
/// and arms the slots. `registry` must outlive probing; call
/// `disable_phy_probes` before destroying it.
void enable_phy_probes(Registry& registry);

/// Disarms all slots (histograms stay in their registry).
void disable_phy_probes() noexcept;

bool phy_probes_enabled() noexcept;

}  // namespace wlan::obs
