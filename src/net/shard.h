// Spatial sharding for the network simulator.
//
// A city-scale deployment is mostly empty air: at 10k nodes the dense
// gain matrix costs O(n^2) memory (~800 MB) and every medium update
// scans every station, yet a transmitter a kilometre away contributes
// power orders of magnitude below both the carrier-sense threshold and
// the thermal noise floor. `plan_shards` makes that locality explicit:
//
//  1. Cutoff rule. Compute the weakest power level any node could care
//     about — min over nodes of min(cs_threshold_dbm,
//     thermal_noise_dbm(bandwidth, nf)) — and subtract
//     `cutoff_margin_db`. A pair of nodes is *coupled* when either
//     direction's deterministic received power (tx power minus dual-
//     slope path loss, before shadowing) still clears that cutoff.
//     Everything below it is treated as exactly zero.
//  2. Tiling. Nodes are binned into a uniform hash grid whose cell
//     size is the cutoff radius (the distance at which the strongest
//     transmitter decays to the cutoff), so candidate pairs come from
//     the 3x3 cell neighbourhood — O(n * degree) instead of O(n^2).
//  3. Neighbor lists. The retained pairs form a symmetric CSR
//     adjacency (ascending per row). The engine stores gains only for
//     these edges.
//  4. Shards. Connected components of the coupling graph. Two nodes in
//     different components cannot exchange any above-cutoff power, so
//     each component simulates independently: private event queue,
//     private obs::Registry — merged in shard order, bitwise
//     identically for any worker count.
//
// `cutoff_margin_db = +infinity` disables the cutoff: every pair is
// coupled and the plan is one shard — `simulate_network` itself runs on
// that degenerate plan.
//
// One RNG discipline serves every mode: a call takes exactly one draw
// from the caller's Rng as its root, and every engine draws only from
// streams derived from that root by global node, flow or pair id. A
// node's randomness therefore does not depend on which engine runs it,
// so a run's results do not depend on how its nodes are grouped into
// engines: any plan's run equals one engine over every shard of the
// same plan (`ShardOptions::border_reference`) bitwise.
//
// Border mode (`ShardOptions::border`) handles the case components
// cannot: one giant connected deployment. Instead of components, nodes
// are tiled into uniform spatial shards whose coupling edges may cross
// tile boundaries. Per-tile engines then run in conservative-time
// lockstep epochs of length `ShardPlan::lookahead_s`, exchanging
// cross-tile influence (ambient power, NAV, interference) through
// border messages applied one epoch later in a canonical order — see
// DESIGN.md "Border exchange & conservative time". The lookahead is the
// minimum cross-border reaction time of a NAV/interference change: one
// slot (the fastest a station can act on new channel state) plus the
// shortest cross-tile coupled distance over the speed of light, rounded
// down to a power of two so epoch boundaries are exact doubles.
#pragma once

#include <cstdint>
#include <vector>

#include "net/netsim.h"

namespace wlan::net {

/// Knobs for `plan_shards` / `simulate_network_sharded`.
struct ShardOptions {
  /// Safety margin below the weakest relevant threshold (carrier sense
  /// or noise floor) before a pair is declared uncoupled. Must cover
  /// the largest plausible shadowing upside (3-4 sigma). +infinity
  /// keeps every pair (monolithic plan).
  double cutoff_margin_db = 15.0;
  /// Hash-grid cell size in metres; 0 = the cutoff radius.
  double tile_m = 0.0;
  /// Worker lanes for the shard sweep; 0 = the process default pool.
  unsigned jobs = 0;

  /// Border mode: shard by uniform spatial tiles instead of connected
  /// components and run per-tile engines in conservative-time lockstep
  /// epochs with cross-tile influence delayed by the plan's lookahead.
  bool border = false;
  /// Border tile edge length in metres; 0 = the cutoff radius (requires
  /// a finite cutoff).
  double border_tile_m = 0.0;
  /// Override for the cross-tile influence delay; 0 = derive it from
  /// slot time + minimum cross-tile coupled distance. Either way the
  /// value is rounded down to a power of two seconds.
  double border_delay_s = 0.0;
  /// Run the plan on one fused engine over every shard instead of one
  /// engine per shard (same shard assignment, same RNG streams, and on a
  /// border plan the same delayed cross-tile influence). Valid on any
  /// plan; the bitwise reference for the component sweep and the
  /// lockstep border exchange alike.
  bool border_reference = false;
};

/// Per-shard load estimate, for diagnosing epoch-round imbalance.
struct ShardLoad {
  std::size_t nodes = 0;
  std::size_t flows = 0;
  /// Directed CSR edges whose endpoints share this shard.
  std::size_t intra_edges = 0;
  /// Directed CSR edges leaving this shard (0 in component mode).
  std::size_t border_edges = 0;
  double weight() const {
    return static_cast<double>(nodes) + static_cast<double>(flows);
  }
};

/// The precomputed coupling structure of a deployment.
struct ShardPlan {
  /// Received power below this is treated as zero (-inf when the
  /// cutoff is disabled).
  double cutoff_rx_dbm = 0.0;
  /// Distance at which the strongest transmitter decays to the cutoff
  /// (+inf when disabled).
  double cutoff_radius_m = 0.0;
  /// Hash-grid cell size actually used (0 when the grid was skipped).
  double tile_m = 0.0;

  /// Symmetric CSR adjacency over retained pairs: row i spans
  /// nbr[row_offset[i] .. row_offset[i+1]), ascending, i excluded.
  std::vector<std::size_t> row_offset;
  std::vector<std::uint32_t> nbr;

  /// Component id per node; components are numbered by their smallest
  /// member node, ascending.
  std::vector<std::uint32_t> shard_of;
  /// Member nodes per shard, ascending within each shard.
  std::vector<std::vector<std::uint32_t>> shards;

  /// True when the plan shards by spatial tiles for border exchange.
  bool border = false;
  /// Conservative-time epoch length (s); 0 in component mode.
  double lookahead_s = 0.0;
  /// Shortest cross-tile coupled distance found (m); 0 when none.
  double min_border_m = 0.0;
  /// Per-shard load estimates (filled when flows were supplied).
  std::vector<ShardLoad> load;

  std::size_t degree(std::size_t i) const {
    return row_offset[i + 1] - row_offset[i];
  }
  std::size_t n_edges() const { return nbr.size(); }
  double mean_degree() const {
    return row_offset.empty() || row_offset.size() == 1
               ? 0.0
               : static_cast<double>(nbr.size()) /
                     static_cast<double>(row_offset.size() - 1);
  }
  std::size_t max_degree() const {
    std::size_t m = 0;
    for (std::size_t i = 0; i + 1 < row_offset.size(); ++i)
      m = std::max(m, degree(i));
    return m;
  }

  /// Heaviest shard weight (nodes + flows); 0 without load estimates.
  double max_load_weight() const {
    double m = 0.0;
    for (const ShardLoad& l : load) m = std::max(m, l.weight());
    return m;
  }
  double mean_load_weight() const {
    if (load.empty()) return 0.0;
    double s = 0.0;
    for (const ShardLoad& l : load) s += l.weight();
    return s / static_cast<double>(load.size());
  }
  /// max/mean shard weight; 1.0 = perfectly balanced.
  double load_imbalance() const {
    const double mean = mean_load_weight();
    return mean > 0.0 ? max_load_weight() / mean : 0.0;
  }
  std::size_t total_border_edges() const {
    std::size_t s = 0;
    for (const ShardLoad& l : load) s += l.border_edges;
    return s;
  }
};

/// Builds the coupling plan for a deployment (no RNG, pure geometry).
/// Supplying `flows` fills per-shard load estimates; in border mode it
/// additionally clusters each flow's endpoints into one tile (every
/// node of a flow-connected cluster adopts the tile of its smallest
/// member), guaranteeing flows never span tiles.
ShardPlan plan_shards(const NetworkConfig& config,
                      const std::vector<NodeConfig>& nodes,
                      const ShardOptions& options,
                      const std::vector<Flow>* flows = nullptr);

/// Runs the network sharded: plans (unless `plan` is supplied), checks
/// every flow's endpoints share a shard (throws ContractError
/// otherwise — widen `cutoff_margin_db` or enable `options.border`),
/// takes exactly one draw from `rng` as the call's root (see the header
/// comment), then simulates each shard independently on the worker pool
/// with a private registry, and merges results, registries (into
/// `config.registry`), airtime and lifecycle books in shard order. A
/// single-shard plan, or any plan with `options.border_reference`, runs
/// as one engine on the calling thread. Flow stats and counters are
/// bitwise identical for any `options.jobs` and to that one-engine
/// reference; a single-shard plan whose edges match the monolith's is
/// bitwise identical to `simulate_network`.
///
/// With `options.border` the shards are coupled spatial tiles run in
/// conservative-time lockstep epochs (see the header comment).
NetworkResult simulate_network_sharded(const NetworkConfig& config,
                                       const std::vector<NodeConfig>& nodes,
                                       const std::vector<Flow>& flows,
                                       const ShardOptions& options, Rng& rng,
                                       const ShardPlan* plan = nullptr);

}  // namespace wlan::net
