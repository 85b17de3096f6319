// Reception error models for the network simulator.
//
// The legacy model (`RxModel::kSinrThreshold`, the default) delivers a
// frame iff its SINR clears a hard threshold — fast, but it produces
// cliff-edge coverage and ignores rate, frame length, and fading. The
// PER model (`RxModel::kPerModel`) replaces the threshold with the
// link-to-system abstraction: a frozen block-fading realization is
// reduced to an EESM -> AWGN-PER table over mean SINR, already scaled to
// the frame's PSDU length; a frame picks one realization, interpolates
// its PER at the frame's SINR, and survives a Bernoulli draw. The hot
// path is one table interpolation plus two RNG draws — no exp/log — so
// network-scale runs stay cheap.
//
// A table depends only on (generation, rate, PSDU bytes, realization),
// never on the link, so a simulation call builds one immutable
// `PerTablePool` of K tables per key and every directed link holds only
// the indices of its `realizations` distinct pool tables (drawn from a
// per-flow derived seed). Setup is O(pool) table builds plus O(links)
// index draws instead of one private dictionary per flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/fading.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/abstraction.h"
#include "mac/timing.h"

namespace wlan::par {
class ThreadPool;
}

namespace wlan::net {

/// How the simulator decides whether a frame is received.
enum class RxModel {
  kSinrThreshold,  ///< legacy hard threshold on SINR (the default)
  kPerModel,       ///< EESM/PER abstraction + Bernoulli draw
};

/// Configuration of the PER reception model. All fields are ignored when
/// `model == kSinrThreshold` (and the simulator then consumes no extra
/// RNG draws, keeping legacy runs bitwise identical).
struct ErrorModelConfig {
  RxModel model = RxModel::kSinrThreshold;
  /// Delay profile of the per-link block-fading realizations.
  channel::DelayProfile profile = channel::DelayProfile::kOffice;
  /// Log-normal shadowing sigma applied once per node pair (symmetric),
  /// on top of the deterministic path loss. 0 disables shadowing.
  double shadowing_sigma_db = 0.0;
  /// Fading realizations per directed link (distinct tables of the
  /// call's PER-table pool); each frame picks one uniformly (block
  /// fading per frame, i.i.d. across frames).
  std::size_t realizations = 16;
  /// Minimum worst-case SINR for the receiver to acquire the preamble at
  /// all; below it the frame is lost outright. The calibrated PER curves
  /// cover payload decoding only and scale with payload length, so
  /// without this gate a 20-byte RTS "survives" an equal-power collision
  /// (~0 dB SINR) most of the time — in reality preamble correlation and
  /// the PLCP header die first.
  double preamble_capture_db = 4.0;
  /// SNR grid of the precomputed PER tables. Lookups clamp to the ends.
  double table_min_snr_db = -15.0;
  double table_max_snr_db = 50.0;
  double table_step_db = 0.5;
};

/// Precomputed PER tables of one (generation, PHY rate, PSDU size):
/// frozen fading realizations, each reduced to a mean-SINR -> PER table
/// (EESM effective SNR -> calibrated AWGN curve, scaled to `psdu_bytes`
/// at construction) and stored back to back in one flat array.
/// DSSS/CCK use a flat (single-tap Rayleigh) coefficient per realization;
/// OFDM and HT use a TDL realization sampled on their data-tone grids.
/// A standalone model is one link's dictionary; `PerTablePool` uses one
/// per key as the shared table set.
class LinkPerModel {
 public:
  LinkPerModel() = default;

  /// Builds `config.realizations` tables, drawing their fading
  /// realizations from `rng` in order.
  /// `rate_mbps` must name a calibrated rate of the generation's curve
  /// family (OFDM: the eight 802.11a/g rates; HT: base MCS 0..7 20 MHz
  /// long-GI rates; DSSS/HR-DSSS: 1, 2, 5.5, 11 Mbps).
  LinkPerModel(mac::PhyGeneration gen, double rate_mbps,
               std::size_t psdu_bytes, const ErrorModelConfig& config,
               Rng& rng);

  /// Allocates `tables` realizations for `build` to freeze one at a
  /// time (they read PER 0 until built).
  LinkPerModel(mac::PhyGeneration gen, double rate_mbps,
               std::size_t psdu_bytes, const ErrorModelConfig& config,
               std::size_t tables);

  /// Freezes realization `realization` from `rng`. Builds of distinct
  /// realizations touch disjoint storage and may run concurrently.
  void build(std::size_t realization, Rng& rng);

  std::size_t realizations() const { return n_tables_; }

  /// PER of realization `realization` at mean SINR `sinr_db`.
  double per(double sinr_db, std::size_t realization) const {
    return interpolate_per(table(realization), min_db_, inv_step_, sinr_db);
  }

  /// Gathered batch lookup: out[i] = per(sinr_db[i], realization[i]).
  /// One call per shard-step instead of one per frame keeps the table
  /// walks together while the tables are hot in cache.
  void per_batch(std::span<const double> sinr_db,
                 std::span<const std::uint32_t> realization,
                 std::span<double> out) const;

 private:
  std::span<const double> table(std::size_t realization) const {
    return {per_.data() + realization * grid_.size(), grid_.size()};
  }

  mac::PhyGeneration gen_ = mac::PhyGeneration::kOfdm;
  unsigned mcs_ = 0;  // OFDM/HT MCS index, or the DsssCckRate
  double beta_ = 0.0;
  std::size_t psdu_bytes_ = 0;
  channel::DelayProfile profile_ = channel::DelayProfile::kOffice;
  double min_db_ = 0.0;
  double inv_step_ = 1.0;
  RVec grid_;  // mean-SNR sample points of every table
  std::size_t n_tables_ = 0;
  RVec per_;   // n_tables_ tables of grid_.size() samples, back to back
};

/// Tables per key of a `PerTablePool` (K, before the per-call cap).
inline constexpr std::size_t kPerPoolRealizations = 1024;

/// One (generation, PHY rate, PSDU bytes) a simulation can receive at.
struct PerKey {
  mac::PhyGeneration gen = mac::PhyGeneration::kOfdm;
  double rate_mbps = 0.0;
  std::size_t psdu_bytes = 0;
};

/// The immutable PER-table pool of one simulation call, shared
/// read-only by every shard, tile and engine of the call.
///
/// Each key holds K = min(max(kPerPoolRealizations, R), R * n_flows)
/// tables (R = `config.realizations`): never more tables than per-flow
/// dictionaries would build, and always enough for one link's R
/// distinct indices. Table r of key k freezes the realization drawn
/// from `derive_seed(root, k, r)`, so the pool is a pure function of
/// (keys, config, n_flows, root) whatever thread builds each table.
class PerTablePool {
 public:
  /// Builds every table, in parallel on `pool` when given.
  PerTablePool(std::span<const PerKey> keys, const ErrorModelConfig& config,
               std::size_t n_flows, std::uint64_t root,
               par::ThreadPool* pool = nullptr);

  std::size_t n_keys() const { return models_.size(); }
  /// K: tables per key.
  std::size_t tables_per_key() const { return tables_per_key_; }
  std::size_t tables_built() const { return n_keys() * tables_per_key_; }
  /// R: table indices each link holds per key.
  std::size_t link_realizations() const { return link_realizations_; }

  /// The table set of key `key` (indices from `draw_link`).
  const LinkPerModel& model(std::size_t key) const { return models_[key]; }

  /// Writes flow `flow_id`'s table indices, key-major: R distinct
  /// indices into each key's tables (`out.size() == n_keys() * R`).
  /// Drawn from the flow's own derived stream, so every mode and every
  /// engine split gives a flow the same tables.
  void draw_link(std::size_t flow_id, std::span<std::uint32_t> out) const;

 private:
  std::uint64_t root_ = 0;
  std::size_t tables_per_key_ = 0;
  std::size_t link_realizations_ = 0;
  std::vector<LinkPerModel> models_;
};

}  // namespace wlan::net
