// Conservative-time border exchange (net/shard.h border mode): planner
// tiling + load estimates, fused-reference vs lockstep-tile bitwise
// equivalence, lane-count invariance of the epoch driver (results, idle
// skips and span tree), hidden terminals across a tile border, and
// invariant-auditor cleanliness under remote influence.
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/link.h"
#include "net/errormodel.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/metrics.h"
#include "obs/perf.h"

namespace wlan {
namespace {

struct Deployment {
  std::vector<net::NodeConfig> nodes;
  std::vector<net::Flow> flows;
};

/// The bench_multibss deployment: `bss_grid`^2 APs, `clients` saturated
/// uplink STAs on a ring around each.
Deployment make_grid(std::size_t bss_grid, double spacing_m,
                     std::size_t clients, double radius_m) {
  Deployment d;
  for (std::size_t gy = 0; gy < bss_grid; ++gy) {
    for (std::size_t gx = 0; gx < bss_grid; ++gx) {
      const double ax = static_cast<double>(gx) * spacing_m;
      const double ay = static_cast<double>(gy) * spacing_m;
      const std::size_t ap = d.nodes.size();
      d.nodes.push_back({{ax, ay}});
      for (std::size_t c = 0; c < clients; ++c) {
        const double angle = 2.0 * M_PI * static_cast<double>(c) /
                             static_cast<double>(clients);
        d.nodes.push_back({{ax + radius_m * std::cos(angle),
                            ay + radius_m * std::sin(angle)}});
        d.flows.push_back({d.nodes.size() - 1, ap});
      }
    }
  }
  return d;
}

/// The 63-node bench_multibss geometry plus its BSS spacing: one
/// connected component whose cells sit near carrier-sense range.
Deployment multibss63(const net::NetworkConfig& cfg, double* spacing_out) {
  double radius_m = 5.0;
  while (snr_at_distance_db(cfg.pathloss, radius_m * 1.3, 17.0,
                            cfg.bandwidth_hz) > 34.0) {
    radius_m *= 1.3;
  }
  const double noise_dbm =
      -174.0 + 10.0 * std::log10(cfg.bandwidth_hz) + 6.0;
  const double cs_snr_db = -82.0 - noise_dbm;
  double spacing_m = radius_m;
  while (snr_at_distance_db(cfg.pathloss, spacing_m, 17.0, cfg.bandwidth_hz) >
         cs_snr_db) {
    spacing_m *= 1.1;
  }
  if (spacing_out) *spacing_out = spacing_m;
  return make_grid(3, spacing_m, 6, radius_m);
}

/// Rounds and routed messages of the sparse Poisson run below (seed 9):
/// pinned, so a driver that drops, repeats or over-skips a round fails.
constexpr std::size_t kSparseEpochs = 549;
constexpr std::uint64_t kSparseMessages = 960;

net::ShardOptions bordered(double tile_m, unsigned jobs) {
  net::ShardOptions o;
  o.border = true;
  o.border_tile_m = tile_m;
  o.jobs = jobs;
  return o;
}

void expect_flows_bitwise(const net::NetworkResult& a,
                          const net::NetworkResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].delivered, b.flows[f].delivered) << "flow " << f;
    EXPECT_EQ(a.flows[f].attempts, b.flows[f].attempts) << "flow " << f;
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries) << "flow " << f;
    EXPECT_EQ(a.flows[f].drops, b.flows[f].drops) << "flow " << f;
    EXPECT_EQ(a.flows[f].throughput_mbps, b.flows[f].throughput_mbps)
        << "flow " << f;
    EXPECT_EQ(a.flows[f].mean_delay_s, b.flows[f].mean_delay_s)
        << "flow " << f;
    EXPECT_EQ(a.flows[f].mean_data_rate_mbps, b.flows[f].mean_data_rate_mbps)
        << "flow " << f;
  }
  EXPECT_EQ(a.total_delivered, b.total_delivered);
  EXPECT_EQ(a.aggregate_throughput_mbps, b.aggregate_throughput_mbps);
  EXPECT_EQ(a.data_tx_count, b.data_tx_count);
  EXPECT_EQ(a.data_failures, b.data_failures);
  EXPECT_EQ(a.rts_tx_count, b.rts_tx_count);
  EXPECT_EQ(a.rts_failures, b.rts_failures);
  EXPECT_EQ(a.simultaneous_starts, b.simultaneous_starts);
}

// --- Planner ---------------------------------------------------------

TEST(BorderPlan, TilesCarryLookaheadAndLoadEstimates) {
  net::NetworkConfig cfg;
  double spacing = 0.0;
  const Deployment d = multibss63(cfg, &spacing);
  const net::ShardOptions opt = bordered(spacing, 1);
  const net::ShardPlan plan = net::plan_shards(cfg, d.nodes, opt, &d.flows);

  EXPECT_TRUE(plan.border);
  EXPECT_GE(plan.shards.size(), 4u);  // a 3x3 BSS grid tiles spatially
  EXPECT_GT(plan.lookahead_s, 0.0);
  // Lookahead is floored to a power of two so epoch boundaries are
  // exact doubles.
  const double l2 = std::log2(plan.lookahead_s);
  EXPECT_EQ(l2, std::floor(l2));
  EXPECT_GE(plan.min_border_m, 0.5);

  // Load estimates cover every node and flow exactly once.
  ASSERT_EQ(plan.load.size(), plan.shards.size());
  std::size_t nodes = 0;
  std::size_t flows = 0;
  for (const net::ShardLoad& l : plan.load) {
    nodes += l.nodes;
    flows += l.flows;
  }
  EXPECT_EQ(nodes, d.nodes.size());
  EXPECT_EQ(flows, d.flows.size());
  EXPECT_GE(plan.load_imbalance(), 1.0);
  EXPECT_GT(plan.total_border_edges(), 0u);
  EXPECT_GE(plan.max_load_weight(), plan.mean_load_weight());

  // Flow endpoints were clustered into one tile each.
  for (const net::Flow& f : d.flows) {
    EXPECT_EQ(plan.shard_of[f.source], plan.shard_of[f.destination]);
  }
}

TEST(BorderPlan, NeedsAFiniteTile) {
  net::NetworkConfig cfg;
  const Deployment d = multibss63(cfg, nullptr);
  net::ShardOptions opt;
  opt.border = true;
  opt.cutoff_margin_db = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net::plan_shards(cfg, d.nodes, opt, &d.flows), ContractError);
}

// --- Fused-reference vs lockstep tiles -------------------------------

// The fused reference runs ONE engine over every tile with the same
// derived per-entity RNG streams and the same delayed cross-tile
// influence records, queued locally instead of routed. The lockstep
// exchange must reproduce it bitwise at any jobs count.
TEST(BorderEquivalence, FusedMatchesTiledBitwiseOn63NodeGrid) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.05;
  cfg.rts_cts = true;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.rate_control = net::RateControlMode::kArf;
  cfg.lifecycle.enabled = true;
  double spacing = 0.0;
  const Deployment d = multibss63(cfg, &spacing);

  obs::Registry fused_reg;
  cfg.registry = &fused_reg;
  net::ShardOptions ref = bordered(spacing, 1);
  ref.border_reference = true;
  Rng fused_rng(11);
  const auto fused =
      net::simulate_network_sharded(cfg, d.nodes, d.flows, ref, fused_rng);
  ASSERT_GE(fused.border.tiles, 4u);
  EXPECT_EQ(fused.lifecycle.breaches, 0u);

  std::string tiled_snapshot_jobs1;
  for (const unsigned jobs : {1u, 8u}) {
    obs::Registry tiled_reg;
    cfg.registry = &tiled_reg;
    Rng rng(11);
    const auto tiled = net::simulate_network_sharded(
        cfg, d.nodes, d.flows, bordered(spacing, jobs), rng);
    expect_flows_bitwise(fused, tiled);
    EXPECT_EQ(tiled.lifecycle.breaches, 0u);
    EXPECT_EQ(tiled.border.tiles, fused.border.tiles);
    EXPECT_EQ(tiled.border.lookahead_s, fused.border.lookahead_s);
    EXPECT_GT(tiled.border.epochs, 0u);
    // Emitted border messages are deterministic and identical across
    // modes (the fused engine counts the records it loops back).
    const obs::Counter* fused_msgs = fused_reg.find_counter("net.border.msgs");
    const obs::Counter* tiled_msgs = tiled_reg.find_counter("net.border.msgs");
    ASSERT_NE(fused_msgs, nullptr);
    ASSERT_NE(tiled_msgs, nullptr);
    EXPECT_GT(fused_msgs->value(), 0u);
    EXPECT_EQ(fused_msgs->value(), tiled_msgs->value());
    // Registry snapshots are byte-equal across jobs counts (merge order
    // is shard order, not thread schedule).
    if (jobs == 1) {
      tiled_snapshot_jobs1 = tiled_reg.snapshot_json();
    } else {
      EXPECT_EQ(tiled_snapshot_jobs1, tiled_reg.snapshot_json());
    }
  }
}

TEST(BorderEquivalence, PoissonArrivalsStayThreadCountInvariant) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.05;
  double spacing = 0.0;
  Deployment d = multibss63(cfg, &spacing);
  // Mixed load: half the flows Poisson — exercises the per-flow arrival
  // streams whose draws must not depend on tile execution order.
  for (std::size_t f = 0; f < d.flows.size(); f += 2) {
    d.flows[f].arrival_rate_pps = 200.0;
  }

  obs::Registry reg1;
  cfg.registry = &reg1;
  Rng rng1(3);
  const auto r1 = net::simulate_network_sharded(cfg, d.nodes, d.flows,
                                                bordered(spacing, 1), rng1);
  obs::Registry reg8;
  cfg.registry = &reg8;
  Rng rng8(3);
  const auto r8 = net::simulate_network_sharded(cfg, d.nodes, d.flows,
                                                bordered(spacing, 8), rng8);
  expect_flows_bitwise(r1, r8);
  EXPECT_EQ(reg1.snapshot_json(), reg8.snapshot_json());
  EXPECT_GT(r1.border.messages, 0u);
  EXPECT_EQ(r1.border.messages, r8.border.messages);
}

// --- Epoch driver ----------------------------------------------------

// Any lane count — one, fewer than the tiles, a count that does not
// divide them, more lanes than tiles — runs the same rounds and
// delivers the same messages in the same order: snapshot, epochs and
// messages equal the 1-lane run, flows equal the fused reference.
TEST(BorderDriver, LaneCountSweepMatchesOneLaneAndFusedReference) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.03;
  cfg.rts_cts = true;
  cfg.lifecycle.enabled = true;
  double spacing = 0.0;
  Deployment d = multibss63(cfg, &spacing);
  for (std::size_t f = 0; f < d.flows.size(); f += 3) {
    d.flows[f].arrival_rate_pps = 300.0;
  }

  net::ShardOptions ref = bordered(spacing, 1);
  ref.border_reference = true;
  Rng fused_rng(5);
  const auto fused =
      net::simulate_network_sharded(cfg, d.nodes, d.flows, ref, fused_rng);
  const std::size_t tiles = fused.border.tiles;
  ASSERT_GE(tiles, 4u);

  std::string snapshot1;
  std::size_t epochs1 = 0;
  std::uint64_t messages1 = 0;
  for (const unsigned jobs :
       {1u, 2u, 3u, 5u, 8u, static_cast<unsigned>(tiles) + 2u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    obs::Registry reg;
    net::NetworkConfig run_cfg = cfg;
    run_cfg.registry = &reg;
    Rng rng(5);
    const auto tiled = net::simulate_network_sharded(
        run_cfg, d.nodes, d.flows, bordered(spacing, jobs), rng);
    expect_flows_bitwise(fused, tiled);
    EXPECT_EQ(tiled.lifecycle.breaches, 0u);
    if (jobs == 1) {
      snapshot1 = reg.snapshot_json();
      epochs1 = tiled.border.epochs;
      messages1 = tiled.border.messages;
      EXPECT_GT(messages1, 0u);
    } else {
      EXPECT_EQ(reg.snapshot_json(), snapshot1);
      EXPECT_EQ(tiled.border.epochs, epochs1);
      EXPECT_EQ(tiled.border.messages, messages1);
    }
  }
}

// A light Poisson load leaves most epochs empty, so the round closer's
// idle skip fires: the run executes far fewer rounds than
// duration / lookahead, and exactly as many at every lane count.
TEST(BorderDriver, SparseLoadSkipsIdleEpochs) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.05;
  double spacing = 0.0;
  Deployment d = multibss63(cfg, &spacing);
  for (net::Flow& f : d.flows) f.arrival_rate_pps = 20.0;

  net::ShardOptions ref = bordered(spacing, 1);
  ref.border_reference = true;
  Rng fused_rng(9);
  const auto fused =
      net::simulate_network_sharded(cfg, d.nodes, d.flows, ref, fused_rng);
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    Rng rng(9);
    const auto r = net::simulate_network_sharded(
        cfg, d.nodes, d.flows, bordered(spacing, jobs), rng);
    expect_flows_bitwise(fused, r);
    EXPECT_GT(r.total_delivered, 0u);
    const double rounds_without_skip =
        std::floor(cfg.duration_s / r.border.lookahead_s) + 1.0;
    EXPECT_LT(static_cast<double>(r.border.epochs), rounds_without_skip);
    EXPECT_EQ(r.border.epochs, kSparseEpochs);
    EXPECT_EQ(r.border.messages, kSparseMessages);
  }
}

// Spans opened inside tile setup, the epoch lanes and tile finalize
// graft under the caller's open span on whichever thread runs them, so
// the merged span tree (paths and call counts) does not depend on the
// lane count or the schedule.
TEST(BorderDriver, SpanTreeIndependentOfJobs) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.02;
  double spacing = 0.0;
  const Deployment d = multibss63(cfg, &spacing);

  const auto tree = [&](unsigned jobs) {
    obs::perf::SpanProfile profile;
    obs::perf::enable_span_profiling(profile);
    {
      const obs::perf::ScopedSpan outer("run");
      Rng rng(13);
      net::simulate_network_sharded(cfg, d.nodes, d.flows,
                                    bordered(spacing, jobs), rng);
    }
    obs::perf::disable_span_profiling();
    std::map<std::string, std::uint64_t> calls;
    for (const auto& [path, stats] : profile.spans()) calls[path] = stats.calls;
    return calls;
  };
  const auto serial = tree(1);
  const auto parallel = tree(4);
  EXPECT_EQ(serial, parallel);
  ASSERT_EQ(serial.count("run;net.finalize;net.finalize"), 1u);
  EXPECT_GE(serial.at("run;net.finalize;net.finalize"), 4u);
}

// --- Hidden terminals across a tile border ---------------------------

/// Two saturated BSS pairs whose senders are mutually hidden (80 m, the
/// proven make_hidden_terminal_setup spacing) while each sender still
/// interferes at the other pair's receiver. The receivers straddle a
/// tile border, so every collision is caused by REMOTE influence.
Deployment hidden_pairs() {
  Deployment d;
  d.nodes.push_back({{0.0, 0.0}});   // 0: sender A (tile 0)
  d.nodes.push_back({{80.0, 0.0}});  // 1: sender B (tile 2)
  d.nodes.push_back({{35.0, 0.0}});  // 2: receiver A (tile 0)
  d.nodes.push_back({{45.0, 0.0}});  // 3: receiver B (clustered to B)
  d.flows.push_back({0, 2});
  d.flows.push_back({1, 3});
  return d;
}

TEST(BorderEquivalence, HiddenTerminalsAcrossTheBorder) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  const Deployment d = hidden_pairs();

  // Tile width 40 m puts {A, rxA} in tile 0 and sender B in tile 2;
  // receiver B (grid tile 1) is clustered with its flow partner.
  const net::ShardOptions opt = bordered(40.0, 8);
  const net::ShardPlan plan = net::plan_shards(cfg, d.nodes, opt, &d.flows);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shard_of[0], plan.shard_of[2]);
  EXPECT_EQ(plan.shard_of[1], plan.shard_of[3]);
  EXPECT_NE(plan.shard_of[0], plan.shard_of[1]);

  net::ShardOptions ref = opt;
  ref.border_reference = true;
  Rng fused_rng(7);
  const auto fused = net::simulate_network_sharded(cfg, d.nodes, d.flows,
                                                   ref, fused_rng);
  Rng tiled_rng(7);
  const auto tiled = net::simulate_network_sharded(cfg, d.nodes, d.flows,
                                                   opt, tiled_rng);
  expect_flows_bitwise(fused, tiled);
  EXPECT_GT(tiled.border.messages, 0u);

  // The hidden-terminal physics must survive the tiling: both flows
  // deliver, and the mutual blindness produces real data losses.
  EXPECT_GT(tiled.flows[0].delivered, 0u);
  EXPECT_GT(tiled.flows[1].delivered, 0u);
  EXPECT_GT(tiled.data_failures, 0u);

  // Qualitative agreement with the true monolith (the same per-entity
  // RNG streams, but immediate cross-tile influence — NOT bitwise
  // comparable): same collision regime, same order of magnitude of
  // goodput.
  net::NetworkConfig mono_cfg = cfg;
  Rng mono_rng(7);
  const auto mono =
      net::simulate_network(mono_cfg, d.nodes, d.flows, mono_rng);
  EXPECT_GT(mono.data_failures, 0u);
  ASSERT_GT(mono.aggregate_throughput_mbps, 0.0);
  const double ratio =
      tiled.aggregate_throughput_mbps / mono.aggregate_throughput_mbps;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

// --- Auditor ---------------------------------------------------------

TEST(BorderAudit, RemoteInfluenceKeepsInvariantsIntact) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.lifecycle.enabled = true;
  cfg.airtime = true;
  const Deployment d = hidden_pairs();
  const net::ShardOptions opt = bordered(40.0, 4);
  Rng rng(21);
  const auto r =
      net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng);
  EXPECT_EQ(r.lifecycle.breaches, 0u)
      << (r.lifecycle.breach_messages.empty()
              ? ""
              : r.lifecycle.breach_messages.front());
  ASSERT_EQ(r.airtime.flows.size(), d.flows.size());
  std::uint64_t delivered = 0;
  for (const auto& f : r.flows) delivered += f.delivered;
  EXPECT_EQ(delivered, r.total_delivered);
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace wlan
