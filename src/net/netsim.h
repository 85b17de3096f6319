// Event-driven multi-node 802.11 network simulator.
//
// Where mac::simulate_dcf models a single collision domain analytically
// (every station hears every other), this simulator places nodes on a
// plane and derives carrier sense, collisions, and capture from physics:
//
//  - physical carrier sense: a node defers while the total received
//    power at ITS location exceeds its CS threshold — distant stations
//    may not hear each other (hidden terminals emerge naturally);
//  - virtual carrier sense: NAV set from overheard RTS/CTS/DATA
//    durations; the optional RTS/CTS exchange protects long frames;
//  - reception: the worst-case SINR over the frame's airtime at the
//    addressed receiver (interference is tracked as transmissions start
//    and stop) either clears a hard threshold (legacy default) or, under
//    RxModel::kPerModel, feeds the EESM/PER link-to-system abstraction
//    and the frame survives a Bernoulli draw (net/errormodel.h);
//  - full DCF: DIFS deferral, slotted backoff with freeze/resume, binary
//    exponential CW, SIFS-spaced ACKs, retry limit.
//
// Every frame is a real byte-encoded MPDU (mac/frames.h), so delivered
// payloads survive an FCS check, not just a boolean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/pathloss.h"
#include "common/rng.h"
#include "mac/timing.h"
#include "mesh/mesh.h"
#include "net/errormodel.h"
#include "obs/analyze/airtime.h"
#include "obs/analyze/lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wlan::net {

/// A station in the network.
struct NodeConfig {
  mesh::Point position;
  double tx_power_dbm = 17.0;
  double cs_threshold_dbm = -82.0;  ///< physical carrier-sense level
  double noise_figure_db = 6.0;
};

/// A traffic flow. arrival_rate_pps == 0 means saturated (always a frame
/// queued); otherwise packets arrive as a Poisson process and queue.
struct Flow {
  std::size_t source;
  std::size_t destination;
  double arrival_rate_pps = 0.0;
};

/// How flow sources pick their data rate.
enum class RateControlMode {
  kFixed,  ///< every data frame at NetworkConfig::data_rate_mbps
  kArf,    ///< per-station ARF over the full OFDM ladder (requires the
           ///< PER error model and the OFDM generation; data_rate_mbps
           ///< is then ignored)
};

struct NetworkConfig {
  channel::PathLossModel pathloss;
  mac::PhyGeneration generation = mac::PhyGeneration::kOfdm;
  double data_rate_mbps = 24.0;
  double basic_rate_mbps = 6.0;
  std::size_t payload_bytes = 1000;
  bool rts_cts = false;
  unsigned retry_limit = 7;
  double sinr_threshold_db = 10.0;  ///< required SINR at data_rate
  double control_sinr_db = 4.0;     ///< required SINR for control frames
  double bandwidth_hz = 20e6;
  double duration_s = 1.0;

  /// Reception decision model (net/errormodel.h). The default keeps the
  /// hard SINR threshold and draws nothing for reception. `kPerModel`
  /// swaps in the EESM/PER abstraction: per-link indices into the call's
  /// shared PER-table pool, calibrated AWGN curves scaled to each frame's
  /// true size, Bernoulli reception.
  ErrorModelConfig error_model;
  /// Data-rate control for flow sources (kArf needs kPerModel + OFDM).
  RateControlMode rate_control = RateControlMode::kFixed;

  // Observability (both optional; null = disabled, zero overhead).
  /// Receives typed MAC/PHY events (TX_START, RX_OK, COLLISION,
  /// BACKOFF_FREEZE, NAV_SET, ...) with simulation timestamps.
  obs::TraceSink* trace = nullptr;
  /// All simulator counters and the per-flow delay histograms are
  /// registered here (names under "net.", plus the scheduler's "sim."
  /// metrics). When null an internal registry is used; either way
  /// `NetworkResult` is populated from the registry at the end of the
  /// run.
  obs::Registry* registry = nullptr;
  /// When true an `obs::AirtimeAccountant` consumes the event stream
  /// (independently of `trace`); the closed ledger lands in
  /// `NetworkResult::airtime` and is mirrored into the registry as
  /// "airtime." gauges/counters.
  bool airtime = false;
  /// Goodput-series window for the airtime ledger.
  double airtime_window_s = 10e-3;

  /// Frame-lifecycle observability (obs/analyze/lifecycle.h): per-frame
  /// delay attribution, windowed time series, and conservation checks.
  struct LifecycleOptions {
    /// Master switch; off = zero overhead (the trace fan-out is never
    /// entered). On, a FrameLedger and TimeSeriesSampler consume the
    /// event stream; the closed books land in NetworkResult::lifecycle
    /// and the delay/component histograms in the registry.
    bool enabled = false;
    /// Also run the InvariantAuditor (conservation laws + flight
    /// recorder); only meaningful with `enabled`.
    bool audit = true;
    /// Time-series window.
    double sample_window_s = 10e-3;
    /// Last-N events kept for the breach post-mortem.
    std::size_t flight_recorder_capacity = 256;
    /// On breach the flight-recorder JSON is written here ("" keeps it
    /// only in NetworkResult::lifecycle.flight_recorder_json).
    std::string flight_recorder_path;
    /// Delay/component histogram binning (log bins, seconds).
    double hist_lo_s = 1e-6;
    double hist_hi_s = 100.0;
    std::size_t hist_bins = 64;
  };
  LifecycleOptions lifecycle;
};

struct FlowStats {
  std::uint64_t delivered = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;
  double throughput_mbps = 0.0;
  /// Arrival -> delivery, Poisson flows only (0 for saturated flows).
  double mean_delay_s = 0.0;
  /// Attempt-weighted mean PHY data rate; equals the configured rate
  /// under fixed rate control, tracks the ARF ladder otherwise.
  double mean_data_rate_mbps = 0.0;
};

struct NetworkResult {
  std::vector<FlowStats> flows;
  std::uint64_t total_delivered = 0;
  double aggregate_throughput_mbps = 0.0;
  std::uint64_t data_tx_count = 0;
  std::uint64_t data_failures = 0;  ///< data frames that missed their ACK
  std::uint64_t rts_tx_count = 0;
  std::uint64_t rts_failures = 0;   ///< RTS frames that missed their CTS
  std::uint64_t simultaneous_starts = 0;  ///< same-slot collisions observed
  /// Airtime ledger (populated only when NetworkConfig::airtime is set).
  obs::AirtimeReport airtime;
  /// Frame-lifecycle books (populated only when
  /// NetworkConfig::lifecycle.enabled is set).
  struct LifecycleResult {
    obs::LifecycleReport ledger;
    obs::LifecycleSeries series;
    std::uint64_t breaches = 0;  ///< invariant-auditor breach count
    std::vector<std::string> breach_messages;
    /// Post-mortem JSON document; empty unless a breach occurred.
    std::string flight_recorder_json;
  };
  LifecycleResult lifecycle;
  /// Border-exchange bookkeeping (populated only by border-mode runs of
  /// `simulate_network_sharded`; see net/shard.h).
  struct BorderStats {
    std::size_t tiles = 0;        ///< spatial shards run in lockstep
    std::size_t epochs = 0;       ///< lockstep rounds actually executed
    std::uint64_t messages = 0;   ///< border messages routed (deterministic)
    double lookahead_s = 0.0;     ///< epoch length used
    // Wall-clock epoch telemetry — NOT deterministic; never compare
    // across runs or fold into gated metrics.
    double wall_s = 0.0;          ///< summed round wall times (epoch phase)
    /// Lane time spent spinning or parked while a round's last tiles
    /// ran elsewhere, summed over lanes.
    double wait_s = 0.0;
    double utilization = 0.0;     ///< busy / (wall * lanes), 0..1
    double imbalance = 0.0;       ///< per-round max/mean shard busy
    double setup_s = 0.0;         ///< engine construction (parallel)
    double finalize_s = 0.0;      ///< per-tile finalize (parallel)
    double merge_s = 0.0;         ///< serial shard-order merge
    double busy_s = 0.0;          ///< summed per-tile epoch busy time
    /// Summed per-round slowest-tile times: the lockstep schedule's
    /// critical path. busy_s / critical_path_s is the speedup an
    /// unlimited-core host could extract from this schedule.
    double critical_path_s = 0.0;
  };
  BorderStats border;
  /// Fraction of *data* frames lost — the expensive failures; RTS losses
  /// cost only a 20-byte frame.
  double data_failure_rate() const {
    return data_tx_count
               ? static_cast<double>(data_failures) /
                     static_cast<double>(data_tx_count)
               : 0.0;
  }

  /// Jain's fairness index over per-flow throughputs: 1 = perfectly
  /// fair, 1/n = one flow starves all others.
  double jain_fairness() const {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const FlowStats& f : flows) {
      sum += f.throughput_mbps;
      sum_sq += f.throughput_mbps * f.throughput_mbps;
    }
    if (sum_sq <= 0.0) return 1.0;
    return sum * sum / (static_cast<double>(flows.size()) * sum_sq);
  }
};

/// Runs the network. Node indices in flows refer to `nodes`. Every call
/// consumes exactly one draw from `rng` — the root every per-node,
/// per-flow and per-pair stream of the run derives from — whatever the
/// network's size or reception model. Equivalent to
/// `simulate_network_sharded` on the unbounded one-shard plan
/// (net/shard.h).
NetworkResult simulate_network(const NetworkConfig& config,
                               const std::vector<NodeConfig>& nodes,
                               const std::vector<Flow>& flows, Rng& rng);

/// Knobs for `simulate_network_batch`.
struct BatchOptions {
  /// Root of the per-run seed derivation (run i runs under
  /// par::derive_seed(root_seed, i, 0)); the batch is a pure function
  /// of this root and `n_runs`, bitwise identical for any thread count.
  std::uint64_t root_seed = 0x9E3779B97F4A7C15ull;
  /// Worker lanes; 0 = the process default pool (see --jobs).
  unsigned jobs = 0;
  /// Optional: each run's private metrics registry is merged here in
  /// run order after all runs finish, so the merged snapshot is also
  /// schedule-independent.
  obs::Registry* registry = nullptr;
};

/// Runs `n_runs` independent replications of the same network on the
/// worker pool, one derived Rng per run. `config.registry` is ignored
/// (each run gets a private registry; see BatchOptions::registry); a
/// non-null `config.trace` is shared by all runs through a
/// SynchronizedTraceSink, so events from concurrent runs interleave
/// arbitrarily but the sink is never raced. Results come back in run
/// order.
std::vector<NetworkResult> simulate_network_batch(
    const NetworkConfig& config, const std::vector<NodeConfig>& nodes,
    const std::vector<Flow>& flows, std::size_t n_runs,
    const BatchOptions& options = {});

/// Convenience topology: the classic hidden-terminal triangle — two
/// saturated senders equidistant from a middle receiver but out of
/// carrier-sense range of each other.
struct HiddenTerminalSetup {
  std::vector<NodeConfig> nodes;  ///< 0 and 1 send, 2 receives
  std::vector<Flow> flows;
};
HiddenTerminalSetup make_hidden_terminal_setup(double sender_spacing_m);

}  // namespace wlan::net
