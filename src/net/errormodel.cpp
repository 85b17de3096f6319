#include "net/errormodel.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/units.h"
#include "par/montecarlo.h"
#include "par/pool.h"
#include "phy/ht.h"
#include "phy/ofdm.h"

namespace wlan::net {
namespace {

constexpr double kRateTolMbps = 0.05;

/// Tables per parallel build task: enough work to amortize dispatch,
/// few enough that a 10-key pool still spreads over every lane.
constexpr std::size_t kTablesPerTask = 16;

/// Trial counter of the per-flow link streams: never a table index.
constexpr std::uint64_t kLinkTrial = ~std::uint64_t{0};

phy::OfdmMcs ofdm_mcs_for_rate(double rate_mbps) {
  for (std::size_t i = 0; i < 8; ++i) {
    const auto mcs = static_cast<phy::OfdmMcs>(i);
    if (std::abs(phy::ofdm_mcs_info(mcs).data_rate_mbps - rate_mbps) <
        kRateTolMbps) {
      return mcs;
    }
  }
  check(false, "no OFDM MCS matches the requested PHY rate");
  return phy::OfdmMcs{};
}

unsigned ht_mcs_for_rate(double rate_mbps) {
  for (unsigned m = 0; m < 8; ++m) {
    const double r = phy::ht_data_rate_mbps(m, phy::HtBandwidth::k20MHz,
                                            phy::HtGuardInterval::kLong);
    if (std::abs(r - rate_mbps) < kRateTolMbps) return m;
  }
  check(false, "no HT base MCS (20 MHz, long GI) matches the requested rate");
  return 0;
}

DsssCckRate dsss_rate_for(double rate_mbps) {
  if (std::abs(rate_mbps - 1.0) < kRateTolMbps) return DsssCckRate::k1Mbps;
  if (std::abs(rate_mbps - 2.0) < kRateTolMbps) return DsssCckRate::k2Mbps;
  if (std::abs(rate_mbps - 5.5) < kRateTolMbps) return DsssCckRate::k5_5Mbps;
  if (std::abs(rate_mbps - 11.0) < kRateTolMbps) return DsssCckRate::k11Mbps;
  check(false, "no DSSS/CCK rate matches the requested PHY rate");
  return DsssCckRate::k1Mbps;
}

/// The uniform mean-SNR grid every table samples.
RVec table_grid(const ErrorModelConfig& config) {
  const auto n = static_cast<std::size_t>((config.table_max_snr_db -
                                           config.table_min_snr_db) /
                                              config.table_step_db +
                                          0.5) +
                 1;
  RVec grid;
  grid.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    grid.push_back(config.table_min_snr_db +
                   static_cast<double>(i) * config.table_step_db);
  }
  return grid;
}

}  // namespace

LinkPerModel::LinkPerModel(mac::PhyGeneration gen, double rate_mbps,
                           std::size_t psdu_bytes,
                           const ErrorModelConfig& config, Rng& rng)
    : LinkPerModel(gen, rate_mbps, psdu_bytes, config, config.realizations) {
  for (std::size_t r = 0; r < n_tables_; ++r) build(r, rng);
}

LinkPerModel::LinkPerModel(mac::PhyGeneration gen, double rate_mbps,
                           std::size_t psdu_bytes,
                           const ErrorModelConfig& config, std::size_t tables)
    : gen_(gen),
      psdu_bytes_(psdu_bytes),
      profile_(config.profile),
      min_db_(config.table_min_snr_db),
      inv_step_(1.0 / config.table_step_db),
      n_tables_(tables) {
  check(tables > 0, "the PER model needs at least one fading realization");
  check(config.table_step_db > 0.0 &&
            config.table_max_snr_db > config.table_min_snr_db,
        "the PER model requires a valid SNR grid");
  switch (gen) {
    case mac::PhyGeneration::kOfdm: {
      const phy::OfdmMcs mcs = ofdm_mcs_for_rate(rate_mbps);
      mcs_ = static_cast<unsigned>(mcs);
      beta_ = eesm_beta(mcs);
      break;
    }
    case mac::PhyGeneration::kHt:
      mcs_ = ht_mcs_for_rate(rate_mbps);
      beta_ = ht_eesm_beta(mcs_);
      break;
    case mac::PhyGeneration::kDsss:
    case mac::PhyGeneration::kHrDsss:
      mcs_ = static_cast<unsigned>(dsss_rate_for(rate_mbps));
      break;
  }
  grid_ = table_grid(config);
  per_.assign(n_tables_ * grid_.size(), 0.0);
}

void LinkPerModel::build(std::size_t realization, Rng& rng) {
  check(realization < n_tables_, "PER realization out of range");
  // OFDM/HT tables batch the whole SNR grid through one EESM sweep per
  // realization (the grid evaluator hoists the per-tone conversions), so
  // a table build does a fraction of the transcendental work of
  // point-by-point sampling.
  double* per = per_.data() + realization * grid_.size();
  switch (gen_) {
    case mac::PhyGeneration::kOfdm: {
      const auto mcs = static_cast<phy::OfdmMcs>(mcs_);
      const channel::Tdl tdl = make_tdl(rng, profile_, 20e6);
      RVec eff(grid_.size());
      eesm_effective_snr_grid_db(ofdm_tone_gains_db(tdl), beta_, grid_, eff);
      for (std::size_t i = 0; i < eff.size(); ++i)
        per[i] = ofdm_awgn_per(mcs, eff[i], psdu_bytes_);
      break;
    }
    case mac::PhyGeneration::kHt: {
      const channel::Tdl tdl = make_tdl(rng, profile_, 20e6);
      RVec eff(grid_.size());
      eesm_effective_snr_grid_db(ht20_tone_gains_db(tdl), beta_, grid_, eff);
      for (std::size_t i = 0; i < eff.size(); ++i)
        per[i] = ht_awgn_per(mcs_, eff[i], psdu_bytes_);
      break;
    }
    case mac::PhyGeneration::kDsss:
    case mac::PhyGeneration::kHrDsss: {
      // Narrowband waveform: one flat Rayleigh coefficient per packet.
      const auto rate = static_cast<DsssCckRate>(mcs_);
      const Cplx h = channel::flat_fading_coefficient(rng);
      const double gain_db = lin_to_db(std::max(std::norm(h), 1e-12));
      for (std::size_t i = 0; i < grid_.size(); ++i)
        per[i] = dsss_awgn_per(rate, grid_[i] + gain_db, psdu_bytes_);
      break;
    }
  }
}

void LinkPerModel::per_batch(std::span<const double> sinr_db,
                             std::span<const std::uint32_t> realization,
                             std::span<double> out) const {
  check(sinr_db.size() == realization.size() && sinr_db.size() == out.size(),
        "per_batch spans must have equal sizes");
  for (std::size_t i = 0; i < sinr_db.size(); ++i) {
    out[i] = per(sinr_db[i], realization[i]);
  }
}

PerTablePool::PerTablePool(std::span<const PerKey> keys,
                           const ErrorModelConfig& config,
                           std::size_t n_flows, std::uint64_t root,
                           par::ThreadPool* pool)
    : root_(root), link_realizations_(config.realizations) {
  check(config.realizations > 0,
        "the PER model needs at least one fading realization");
  check(!keys.empty() && n_flows > 0, "a PER-table pool needs keys and flows");
  tables_per_key_ =
      std::min(std::max(kPerPoolRealizations, link_realizations_),
               link_realizations_ * n_flows);
  models_.reserve(keys.size());
  for (const PerKey& k : keys) {
    models_.emplace_back(k.gen, k.rate_mbps, k.psdu_bytes, config,
                         tables_per_key_);
  }
  const std::size_t total = tables_built();
  auto build_range = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t key = i / tables_per_key_;
      const std::size_t r = i % tables_per_key_;
      Rng rng(par::derive_seed(root_, key, r));
      models_[key].build(r, rng);
    }
  };
  if (pool == nullptr) {
    build_range(0, total);
    return;
  }
  // Worker spans (fading taps, FFTs) graft under the caller's open span
  // path, as in the Monte-Carlo sweeps.
  const par::detail::ProfileTargets prof = par::detail::profiling_targets();
  pool->parallel_for(total, kTablesPerTask,
                     [&](std::size_t b, std::size_t e) {
                       const par::detail::ProfileShardGuard shard(prof);
                       build_range(b, e);
                     });
}

void PerTablePool::draw_link(std::size_t flow_id,
                             std::span<std::uint32_t> out) const {
  const std::size_t n = link_realizations_;
  check(out.size() == n_keys() * n, "draw_link output has the wrong size");
  Rng rng(par::derive_seed(root_, flow_id, kLinkTrial));
  // Floyd's sampling: R distinct indices out of K with exactly R draws.
  for (std::size_t k = 0; k < n_keys(); ++k) {
    std::uint32_t* sel = out.data() + k * n;
    for (std::size_t j = tables_per_key_ - n, m = 0; j < tables_per_key_;
         ++j, ++m) {
      auto t = static_cast<std::uint32_t>(rng.uniform_int(j + 1));
      if (std::find(sel, sel + m, t) != sel + m)
        t = static_cast<std::uint32_t>(j);
      sel[m] = t;
    }
  }
}

}  // namespace wlan::net
