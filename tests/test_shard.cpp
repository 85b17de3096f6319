// The spatially sharded network engine: planner geometry, one bitwise
// equivalence suite over every run mode (monolith, component sweep,
// border tiles vs the fused one-engine reference), thread-count-
// independent merges, and the event-bookkeeping fixes that scaling
// flushed out.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/abstraction.h"
#include "core/link.h"
#include "net/errormodel.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/pool.h"

namespace wlan {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Deployment {
  std::vector<net::NodeConfig> nodes;
  std::vector<net::Flow> flows;
};

/// The bench_multibss deployment: `bss_grid`^2 APs, `clients` saturated
/// uplink STAs on a ring around each.
Deployment make_grid(std::size_t bss_grid, double spacing_m,
                     std::size_t clients, double radius_m,
                     double origin_x = 0.0) {
  Deployment d;
  for (std::size_t gy = 0; gy < bss_grid; ++gy) {
    for (std::size_t gx = 0; gx < bss_grid; ++gx) {
      const double ax = origin_x + static_cast<double>(gx) * spacing_m;
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

/// The 63-node bench_multibss geometry (same physics-driven sizing),
/// optionally reporting its BSS spacing.
Deployment multibss63(const net::NetworkConfig& cfg,
                      double* spacing_out = nullptr) {
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

net::ShardOptions monolithic() {
  net::ShardOptions o;
  o.cutoff_margin_db = kInf;
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

/// Every model counter of a registry snapshot, keyed by name and labels.
/// A counter that one registry lacks reads as zero in it. The scheduler's
/// own `sim.` instruments count per-engine work (the fused reference
/// applies all influence records of one instant in one event, a tile
/// engine only its own) and are left out.
std::map<std::string, double> counters_of(const obs::Registry& reg) {
  std::map<std::string, double> out;
  const obs::JsonValue doc = obs::JsonValue::parse(reg.snapshot_json());
  for (const obs::JsonValue& c : doc.at("counters").items()) {
    std::string key = c.at("name").as_string();
    if (key.rfind("sim.", 0) == 0) continue;
    for (const auto& [k, v] : c.at("labels").members())
      key += " " + k + "=" + v.as_string();
    if (c.at("value").as_number() != 0.0) out[key] = c.at("value").as_number();
  }
  return out;
}

/// Model counters bitwise equal.
void expect_counters_equal(const obs::Registry& a, const obs::Registry& b) {
  std::map<std::string, double> ca = counters_of(a);
  std::map<std::string, double> cb = counters_of(b);
  EXPECT_FALSE(ca.empty());
  for (const auto& [key, value] : ca) EXPECT_EQ(value, cb[key]) << key;
  for (const auto& [key, value] : cb) EXPECT_EQ(ca[key], value) << key;
}

// --- Planner geometry ------------------------------------------------

TEST(ShardPlan, UnboundedMarginKeepsEveryPairInOneShard) {
  net::NetworkConfig cfg;
  const Deployment d = multibss63(cfg);
  const net::ShardPlan plan = net::plan_shards(cfg, d.nodes, monolithic());
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].size(), d.nodes.size());
  EXPECT_EQ(plan.n_edges(), d.nodes.size() * (d.nodes.size() - 1));
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    EXPECT_EQ(plan.degree(i), d.nodes.size() - 1);
    EXPECT_EQ(plan.shard_of[i], 0u);
  }
}

TEST(ShardPlan, DistantClustersFormSeparateShards) {
  net::NetworkConfig cfg;
  Deployment d = make_grid(1, 0.0, 2, 10.0);
  const Deployment far = make_grid(1, 0.0, 2, 10.0, 5000.0);
  const std::size_t offset = d.nodes.size();
  d.nodes.insert(d.nodes.end(), far.nodes.begin(), far.nodes.end());
  for (const net::Flow& f : far.flows) {
    d.flows.push_back({f.source + offset, f.destination + offset});
  }
  const net::ShardPlan plan =
      net::plan_shards(cfg, d.nodes, net::ShardOptions{});
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].size(), offset);
  EXPECT_EQ(plan.shards[1].size(), far.nodes.size());
  // Rows are ascending and symmetric; no edge crosses the clusters.
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    for (std::size_t e = plan.row_offset[i]; e < plan.row_offset[i + 1];
         ++e) {
      const std::uint32_t j = plan.nbr[e];
      if (e > plan.row_offset[i]) {
        EXPECT_LT(plan.nbr[e - 1], j);
      }
      EXPECT_EQ(plan.shard_of[i], plan.shard_of[j]);
      bool reverse = false;
      for (std::size_t r = plan.row_offset[j]; r < plan.row_offset[j + 1];
           ++r) {
        reverse |= plan.nbr[r] == i;
      }
      EXPECT_TRUE(reverse) << i << "->" << j;
    }
  }
}

TEST(ShardPlan, WiderMarginCouplesMorePairs) {
  net::NetworkConfig cfg;
  const Deployment d = multibss63(cfg);
  net::ShardOptions narrow;
  narrow.cutoff_margin_db = 0.0;
  net::ShardOptions wide;
  wide.cutoff_margin_db = 30.0;
  const net::ShardPlan pn = net::plan_shards(cfg, d.nodes, narrow);
  const net::ShardPlan pw = net::plan_shards(cfg, d.nodes, wide);
  EXPECT_GE(pw.n_edges(), pn.n_edges());
  EXPECT_GT(pw.cutoff_radius_m, pn.cutoff_radius_m);
  EXPECT_LT(pw.cutoff_rx_dbm, pn.cutoff_rx_dbm);
}

// --- Shard vs monolith equivalence ----------------------------------

TEST(ShardEquivalence, Multibss63BitwiseIdenticalToMonolith) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.payload_bytes = 1000;
  cfg.rts_cts = true;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.rate_control = net::RateControlMode::kArf;
  const Deployment d = multibss63(cfg);

  obs::Registry mono_reg;
  cfg.registry = &mono_reg;
  Rng mono_rng(11);
  const auto mono = simulate_network(cfg, d.nodes, d.flows, mono_rng);

  for (const unsigned jobs : {1u, 8u}) {
    obs::Registry shard_reg;
    cfg.registry = &shard_reg;
    net::ShardOptions opt = monolithic();
    opt.jobs = jobs;
    Rng rng(11);
    const auto sharded =
        net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng);
    expect_flows_bitwise(mono, sharded);
    EXPECT_EQ(mono_reg.snapshot_json(), shard_reg.snapshot_json());
  }
}

/// Two multibss cells 5 km apart: a genuinely multi-shard run.
Deployment two_cells(const net::NetworkConfig& cfg) {
  Deployment d = multibss63(cfg);
  d.nodes.resize(7);  // one BSS: AP + 6 clients
  d.flows.resize(6);
  const std::size_t offset = d.nodes.size();
  Deployment far = d;
  for (net::NodeConfig& n : far.nodes) n.position.x += 5000.0;
  d.nodes.insert(d.nodes.end(), far.nodes.begin(), far.nodes.end());
  for (const net::Flow& f : far.flows) {
    d.flows.push_back({f.source + offset, f.destination + offset});
  }
  return d;
}

TEST(ShardEquivalence, MultiShardRunIsThreadCountInvariant) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.lifecycle.enabled = true;
  cfg.airtime = true;
  const Deployment d = two_cells(cfg);

  net::ShardOptions opt;
  {
    const net::ShardPlan plan = net::plan_shards(cfg, d.nodes, opt);
    ASSERT_EQ(plan.shards.size(), 2u);
  }

  obs::Registry reg1;
  cfg.registry = &reg1;
  opt.jobs = 1;
  Rng rng1(3);
  const auto r1 = net::simulate_network_sharded(cfg, d.nodes, d.flows, opt,
                                                rng1);
  obs::Registry reg8;
  cfg.registry = &reg8;
  opt.jobs = 8;
  Rng rng8(3);
  const auto r8 = net::simulate_network_sharded(cfg, d.nodes, d.flows, opt,
                                                rng8);
  expect_flows_bitwise(r1, r8);
  EXPECT_EQ(reg1.snapshot_json(), reg8.snapshot_json());
  EXPECT_EQ(r1.lifecycle.breaches, 0u);
  EXPECT_EQ(r8.lifecycle.breaches, 0u);
}

// --- One equivalence suite over every run mode ----------------------

/// Two saturated pairs whose mutually hidden senders straddle a 40 m
/// tile border, so every collision is caused by remote influence.
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

/// PER reception with shadowing, ARF and RTS: every per-entity stream
/// (backoff, reception, pair shadowing, pool table indices) is drawn.
net::NetworkConfig per_config(double duration_s) {
  net::NetworkConfig cfg;
  cfg.duration_s = duration_s;
  cfg.rts_cts = true;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.rate_control = net::RateControlMode::kArf;
  cfg.lifecycle.enabled = true;
  return cfg;
}

enum class PlanKind { kMonolith, kComponents, kBorderGrid, kHiddenPair };

struct PlanCase {
  net::NetworkConfig cfg;
  Deployment d;
  net::ShardOptions opt;
  std::size_t min_shards = 1;
};

PlanCase make_case(PlanKind kind) {
  PlanCase c;
  switch (kind) {
    case PlanKind::kMonolith:
      c.cfg = per_config(0.2);
      c.d = multibss63(c.cfg);
      c.opt = monolithic();
      break;
    case PlanKind::kComponents:
      c.cfg = per_config(0.2);
      c.cfg.airtime = true;
      c.d = two_cells(c.cfg);
      c.min_shards = 2;
      break;
    case PlanKind::kBorderGrid: {
      c.cfg = per_config(0.05);
      double spacing = 0.0;
      c.d = multibss63(c.cfg, &spacing);
      c.opt.border = true;
      c.opt.border_tile_m = spacing;
      c.min_shards = 4;
      break;
    }
    case PlanKind::kHiddenPair:
      c.cfg.duration_s = 0.2;
      c.cfg.lifecycle.enabled = true;
      c.d = hidden_pairs();
      c.opt.border = true;
      c.opt.border_tile_m = 40.0;
      c.min_shards = 2;
      break;
  }
  return c;
}

class ModeEquivalence
    : public ::testing::TestWithParam<std::tuple<PlanKind, unsigned>> {};

// Every mode runs the same engine on streams derived by global id from
// one caller draw, so any plan's run equals ONE engine over all of its
// shards — the fused reference — bitwise, at any jobs count.
TEST_P(ModeEquivalence, MatchesFusedReference) {
  const auto [kind, jobs] = GetParam();
  PlanCase c = make_case(kind);
  const net::ShardPlan plan =
      net::plan_shards(c.cfg, c.d.nodes, c.opt, &c.d.flows);
  ASSERT_GE(plan.shards.size(), c.min_shards);
  if (kind == PlanKind::kMonolith) {
    ASSERT_EQ(plan.shards.size(), 1u);
  }

  obs::Registry ref_reg;
  c.cfg.registry = &ref_reg;
  net::ShardOptions ref_opt = c.opt;
  ref_opt.border_reference = true;
  Rng ref_rng(11);
  const auto ref = net::simulate_network_sharded(c.cfg, c.d.nodes, c.d.flows,
                                                 ref_opt, ref_rng, &plan);
  EXPECT_GT(ref.total_delivered, 0u);
  EXPECT_EQ(ref.lifecycle.breaches, 0u);

  const auto run_at = [&](unsigned lanes, obs::Registry& reg) {
    c.cfg.registry = &reg;
    net::ShardOptions opt = c.opt;
    opt.jobs = lanes;
    Rng rng(11);
    return net::simulate_network_sharded(c.cfg, c.d.nodes, c.d.flows, opt,
                                         rng, &plan);
  };
  obs::Registry reg;
  const auto run = run_at(jobs, reg);
  expect_flows_bitwise(ref, run);
  expect_counters_equal(ref_reg, reg);
  EXPECT_EQ(run.lifecycle.breaches, 0u);
  if (plan.border) {
    EXPECT_GT(run.border.messages, 0u);
  } else {
    // Without influence records every engine executes exactly its own
    // nodes' events.
    EXPECT_EQ(ref_reg.find_counter("sim.events_executed")->value(),
              reg.find_counter("sim.events_executed")->value());
  }

  // The merged snapshot, gauges and occupancy histograms included, is
  // byte-equal to the one-lane run's.
  if (jobs != 1) {
    obs::Registry reg1;
    run_at(1, reg1);
    EXPECT_EQ(reg1.snapshot_json(), reg.snapshot_json());
  }

  // The monolith is simulate_network's own plan.
  if (kind == PlanKind::kMonolith) {
    obs::Registry mono_reg;
    c.cfg.registry = &mono_reg;
    Rng mono_rng(11);
    const auto mono =
        net::simulate_network(c.cfg, c.d.nodes, c.d.flows, mono_rng);
    expect_flows_bitwise(ref, mono);
    EXPECT_EQ(ref_reg.snapshot_json(), mono_reg.snapshot_json());
    EXPECT_EQ(reg.snapshot_json(), mono_reg.snapshot_json());
  }
}

std::string case_name(
    const ::testing::TestParamInfo<ModeEquivalence::ParamType>& info) {
  static const char* const kNames[] = {"monolith", "components",
                                       "border_grid", "hidden_pair"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_jobs" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PlanKinds, ModeEquivalence,
    ::testing::Combine(::testing::Values(PlanKind::kMonolith,
                                         PlanKind::kComponents,
                                         PlanKind::kBorderGrid,
                                         PlanKind::kHiddenPair),
                       ::testing::Values(1u, 8u)),
    case_name);

TEST(ShardEquivalence, MonolithEqualsEveryOneShardPlan) {
  // At 80 m spacing every pair of the triangle clears the default
  // cutoff, so a component plan and a coarse border plan both hold the
  // monolith's complete graph in one shard, and each run equals
  // simulate_network under the same caller seed, under threshold and
  // PER reception alike.
  const auto setup = net::make_hidden_terminal_setup(80.0);
  net::ShardOptions component;
  net::ShardOptions border_tiled;
  border_tiled.border = true;
  border_tiled.border_tile_m = 1000.0;
  net::ShardOptions border_fused = border_tiled;
  border_fused.border_reference = true;
  for (const bool per : {false, true}) {
    net::NetworkConfig cfg;
    if (per) cfg = per_config(0.0);
    cfg.duration_s = 0.5;
    obs::Registry mono_reg;
    cfg.registry = &mono_reg;
    Rng mono_rng(7);
    const auto mono =
        simulate_network(cfg, setup.nodes, setup.flows, mono_rng);
    EXPECT_GT(mono.total_delivered, 0u);

    for (const net::ShardOptions& base :
         {component, border_fused, border_tiled}) {
      net::ShardOptions opt = base;
      opt.jobs = 8;
      const net::ShardPlan plan =
          net::plan_shards(cfg, setup.nodes, opt, &setup.flows);
      ASSERT_EQ(plan.shards.size(), 1u);
      ASSERT_EQ(plan.n_edges(), 6u);
      obs::Registry reg;
      cfg.registry = &reg;
      Rng rng(7);
      const auto r = net::simulate_network_sharded(
          cfg, setup.nodes, setup.flows, opt, rng, &plan);
      expect_flows_bitwise(mono, r);
      expect_counters_equal(mono_reg, reg);
      // A border plan adds only its (zero) border-message counter.
      if (!opt.border) {
        EXPECT_EQ(mono_reg.snapshot_json(), reg.snapshot_json());
      }
    }
  }
}

TEST(ShardEquivalence, ShardZeroMatchesMonolithOfItsSubset) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  const Deployment d = two_cells(cfg);
  const std::size_t cell_nodes = 7;
  const std::size_t cell_flows = 6;

  net::ShardOptions opt;
  Rng rng(99);
  const auto sharded =
      net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng);

  // Shard 0's members are exactly cell 0, whose global node and flow ids
  // equal its ids in a run of the subset alone, so every stream they
  // draw from is the same under the same caller seed.
  Rng mono_rng(99);
  const std::vector<net::NodeConfig> sub_nodes(
      d.nodes.begin(), d.nodes.begin() + cell_nodes);
  const std::vector<net::Flow> sub_flows(d.flows.begin(),
                                         d.flows.begin() + cell_flows);
  const auto mono = simulate_network(cfg, sub_nodes, sub_flows, mono_rng);
  for (std::size_t f = 0; f < cell_flows; ++f) {
    EXPECT_EQ(sharded.flows[f].delivered, mono.flows[f].delivered);
    EXPECT_EQ(sharded.flows[f].attempts, mono.flows[f].attempts);
    EXPECT_EQ(sharded.flows[f].throughput_mbps, mono.flows[f].throughput_mbps);
  }
}

TEST(ShardEquivalence, CrossShardFlowThrows) {
  net::NetworkConfig cfg;
  Deployment d = two_cells(cfg);
  d.flows.push_back({0, 7});  // spans the 5 km gap
  net::ShardOptions opt;
  Rng rng(1);
  EXPECT_THROW(
      net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng),
      ContractError);
}

TEST(ShardEquivalence, CrossShardFlowErrorNamesTheFlowAndTheRemedy) {
  net::NetworkConfig cfg;
  Deployment d = two_cells(cfg);
  d.flows.push_back({0, 7});  // flow 12: spans the 5 km gap
  net::ShardOptions opt;
  Rng rng(1);
  try {
    net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow 12"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0 -> 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ShardOptions::border"), std::string::npos) << msg;
  }
}

TEST(ShardedBooks, MergedLedgersLandInGlobalSlots) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.lifecycle.enabled = true;
  cfg.airtime = true;
  const Deployment d = two_cells(cfg);
  obs::Registry reg;
  cfg.registry = &reg;
  net::ShardOptions opt;
  Rng rng(5);
  const auto r = net::simulate_network_sharded(cfg, d.nodes, d.flows, opt,
                                               rng);
  // Global sizing and conservation across both cells.
  ASSERT_EQ(r.flows.size(), d.flows.size());
  ASSERT_EQ(r.airtime.nodes.size(), d.nodes.size());
  ASSERT_EQ(r.airtime.flows.size(), d.flows.size());
  ASSERT_EQ(r.lifecycle.ledger.flows.size(), d.flows.size());
  std::uint64_t delivered = 0;
  for (const auto& f : r.flows) delivered += f.delivered;
  EXPECT_EQ(delivered, r.total_delivered);
  EXPECT_GT(delivered, 0u);
  for (std::size_t f = 0; f < d.flows.size(); ++f) {
    EXPECT_EQ(r.airtime.flows[f].delivered, r.flows[f].delivered);
    EXPECT_EQ(r.lifecycle.ledger.flows[f].delivered, r.flows[f].delivered);
  }
  // The merged channel-time partition closes over both shards' channels.
  EXPECT_NEAR(r.airtime.idle_s + r.airtime.busy_s + r.airtime.collision_s,
              r.airtime.duration_s, 1e-9 * r.airtime.duration_s);
  // Per-flow instruments carry global ids: flows 6.. are the far cell.
  EXPECT_NE(reg.find_counter("net.delivered", {{"flow", "7"}}), nullptr);
  EXPECT_NE(reg.find_counter("lifecycle.delivered", {{"flow", "7"}}),
            nullptr);
  EXPECT_NE(reg.find_counter("airtime.flow_delivered", {{"flow", "7"}}),
            nullptr);
  EXPECT_NE(reg.find_counter("airtime.node_tx_frames", {{"node", "13"}}),
            nullptr);
  EXPECT_EQ(r.lifecycle.breaches, 0u);
}

// --- Event-bookkeeping regressions ----------------------------------

// Long-churn soak: hours of simulated saturated contention with RTS/CTS
// exercises millions of interference add/subtract pairs. The engine
// asserts (check) that no running sum ever goes negative beyond FP
// rounding, so drift or double-subtraction aborts the run.
TEST(Bookkeeping, LongChurnKeepsInterferenceSumsNonNegative) {
  // 80 m keeps the senders below each other's CS threshold (hidden)
  // while the 40 m sender->receiver hop still clears the SINR threshold.
  const auto setup = net::make_hidden_terminal_setup(80.0);
  net::NetworkConfig cfg;
  cfg.duration_s = 20.0;
  cfg.rts_cts = true;  // CTS/ACK cross-traffic maximizes add/subtract churn
  Rng rng(17);
  const auto r =
      simulate_network(cfg, setup.nodes, setup.flows, rng);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.data_failures + r.rts_failures, 0u);  // real contention ran
}

TEST(Bookkeeping, ManyOverlappingTransmissionsTearDownCleanly) {
  // Four isolated BSS clusters in one shard-free monolithic run keep
  // several transmissions in flight at once, exercising the slot arena's
  // id-checked teardown (stale handles would trip "transmission
  // bookkeeping lost").
  net::NetworkConfig cfg;
  cfg.duration_s = 1.0;
  Deployment d;
  for (std::size_t c = 0; c < 4; ++c) {
    const Deployment cell = make_grid(1, 0.0, 3, 10.0, 5000.0 * c);
    const std::size_t offset = d.nodes.size();
    d.nodes.insert(d.nodes.end(), cell.nodes.begin(), cell.nodes.end());
    for (const net::Flow& f : cell.flows) {
      d.flows.push_back({f.source + offset, f.destination + offset});
    }
  }
  Rng rng(23);
  const auto r = simulate_network(cfg, d.nodes, d.flows, rng);
  EXPECT_GT(r.total_delivered, 0u);
  for (const auto& f : r.flows) EXPECT_GT(f.delivered, 0u);
}

// --- Batched EESM ----------------------------------------------------

TEST(EesmGrid, MatchesScalarEvaluationAcrossTheTable) {
  Rng rng(31);
  for (const double beta : {0.9, 1.5, 4.0, 11.0}) {
    RVec gains;
    for (std::size_t k = 0; k < 48; ++k) {
      gains.push_back(rng.gaussian(0.0, 6.0));
    }
    RVec means;
    for (double m = -15.0; m <= 50.0; m += 0.5) means.push_back(m);
    RVec grid(means.size());
    eesm_effective_snr_grid_db(gains, beta, means, grid);
    for (std::size_t i = 0; i < means.size(); ++i) {
      RVec snrs;
      for (const double g : gains) snrs.push_back(means[i] + g);
      EXPECT_NEAR(grid[i], eesm_effective_snr_db(snrs, beta), 1e-6)
          << "beta " << beta << " mean " << means[i];
    }
  }
}

TEST(EesmGrid, PerBatchMatchesScalarLookups) {
  net::ErrorModelConfig cfg;
  cfg.model = net::RxModel::kPerModel;
  cfg.realizations = 8;
  Rng rng(41);
  const net::LinkPerModel model(mac::PhyGeneration::kOfdm, 24.0, 1000, cfg,
                                rng);
  std::vector<double> sinr;
  std::vector<std::uint32_t> real;
  Rng draw(42);
  for (std::size_t i = 0; i < 256; ++i) {
    sinr.push_back(-20.0 + 70.0 * draw.uniform());
    real.push_back(
        static_cast<std::uint32_t>(draw.uniform_int(model.realizations())));
  }
  std::vector<double> batch(sinr.size());
  model.per_batch(sinr, real, batch);
  for (std::size_t i = 0; i < sinr.size(); ++i) {
    EXPECT_EQ(batch[i], model.per(sinr[i], real[i])) << i;
  }
}

// --- Shared PER-table pool -------------------------------------------

net::ErrorModelConfig pool_config(std::size_t realizations) {
  net::ErrorModelConfig cfg;
  cfg.model = net::RxModel::kPerModel;
  cfg.realizations = realizations;
  return cfg;
}

const std::vector<net::PerKey> kOfdmKeys{
    {mac::PhyGeneration::kOfdm, 24.0, 1028},
    {mac::PhyGeneration::kOfdm, 6.0, mac::kAckBytes}};

TEST(PerTablePool, FlatTablesMatchScalarPrediction) {
  // The flat table store reproduces the scalar EESM -> AWGN chain of
  // the same frozen realization on every grid point.
  const net::ErrorModelConfig cfg = pool_config(2);
  Rng rng(5);
  const net::LinkPerModel model(mac::PhyGeneration::kOfdm, 24.0, 1028, cfg,
                                rng);
  Rng replay(5);
  for (std::size_t r = 0; r < 2; ++r) {
    const channel::Tdl tdl = channel::make_tdl(replay, cfg.profile, 20e6);
    for (double snr = -15.0; snr <= 50.0; snr += 0.5) {
      EXPECT_NEAR(model.per(snr, r),
                  predict_ofdm_per(phy::OfdmMcs::k24Mbps, tdl, snr, 1028),
                  1e-9)
          << "realization " << r << " snr " << snr;
    }
  }
  EXPECT_THROW(model.per(std::nan(""), 0), ContractError);
}

TEST(PerTablePool, BitwiseIdenticalAtAnyJobs) {
  const net::ErrorModelConfig cfg = pool_config(8);
  const net::PerTablePool serial(kOfdmKeys, cfg, 40, 77);
  par::ThreadPool lanes(4);
  const net::PerTablePool parallel(kOfdmKeys, cfg, 40, 77, &lanes);
  ASSERT_EQ(serial.tables_built(), parallel.tables_built());
  for (std::size_t k = 0; k < serial.n_keys(); ++k) {
    for (std::size_t r = 0; r < serial.tables_per_key(); ++r) {
      for (const double snr : {-3.0, 7.25, 12.0, 19.5, 33.0}) {
        ASSERT_EQ(serial.model(k).per(snr, r), parallel.model(k).per(snr, r))
            << "key " << k << " table " << r;
      }
    }
  }
}

TEST(PerTablePool, NeverBuildsMoreTablesThanPerFlowDictionaries) {
  for (const std::size_t flows : {std::size_t{1}, std::size_t{3},
                                  std::size_t{127}, std::size_t{128},
                                  std::size_t{7500}}) {
    const net::ErrorModelConfig cfg = pool_config(8);
    const net::PerTablePool pool(kOfdmKeys, cfg, flows, flows);
    const std::size_t per_key = pool.tables_per_key();
    EXPECT_EQ(per_key, std::min<std::size_t>(net::kPerPoolRealizations,
                                             cfg.realizations * flows));
    EXPECT_LE(per_key, cfg.realizations * flows);
    EXPECT_EQ(pool.tables_built(), pool.n_keys() * per_key);

    // Every link holds R distinct, in-range indices per key; a lone flow
    // holds each table of its key exactly once, as its own dictionary
    // would.
    std::vector<std::uint32_t> idx(pool.n_keys() * cfg.realizations);
    for (std::size_t f = 0; f < std::min<std::size_t>(flows, 50); ++f) {
      pool.draw_link(f, idx);
      for (std::size_t k = 0; k < pool.n_keys(); ++k) {
        std::vector<std::uint32_t> sel(
            idx.begin() + static_cast<std::ptrdiff_t>(k * cfg.realizations),
            idx.begin() +
                static_cast<std::ptrdiff_t>((k + 1) * cfg.realizations));
        for (const std::uint32_t t : sel) EXPECT_LT(t, per_key);
        std::sort(sel.begin(), sel.end());
        EXPECT_EQ(std::adjacent_find(sel.begin(), sel.end()), sel.end());
        if (flows == 1) {
          EXPECT_EQ(sel.back(), cfg.realizations - 1);
        }
      }
    }
  }
  // A link wanting more realizations than the default K still gets
  // distinct tables.
  const net::PerTablePool wide(kOfdmKeys, pool_config(1500), 2, 1);
  EXPECT_EQ(wide.tables_per_key(), 1500u);
}

TEST(PerTablePool, MeanPerMatchesPerLinkDictionaries) {
  // Statistical equivalence of the pool to the per-link dictionaries it
  // replaces: over many links, the mean PER at each SNR of the pool
  // tables the links index agrees with the mean over freshly built
  // per-link LinkPerModels within a 4-sigma Monte-Carlo interval. Links
  // share pool tables, so the pool side's sample count is the effective
  // count (sum m)^2 / sum m^2 of the table multiplicities m.
  constexpr std::size_t kLinks = 240;
  const net::ErrorModelConfig cfg = pool_config(8);
  const net::PerTablePool pool(kOfdmKeys, cfg, kLinks, 2024);
  std::vector<std::size_t> mult(pool.tables_per_key(), 0);
  std::vector<std::uint32_t> idx(pool.n_keys() * cfg.realizations);
  for (std::size_t f = 0; f < kLinks; ++f) {
    pool.draw_link(f, idx);
    for (std::size_t j = 0; j < cfg.realizations; ++j) ++mult[idx[j]];
  }
  double sum_m = 0.0;
  double sum_m2 = 0.0;
  for (const std::size_t m : mult) {
    sum_m += static_cast<double>(m);
    sum_m2 += static_cast<double>(m * m);
  }
  const double n_pool = sum_m * sum_m / sum_m2;

  std::vector<net::LinkPerModel> fresh;
  Rng rng(2025);
  for (std::size_t f = 0; f < kLinks; ++f) {
    fresh.emplace_back(mac::PhyGeneration::kOfdm, 24.0, 1028, cfg, rng);
  }
  const double n_fresh = static_cast<double>(kLinks * cfg.realizations);

  std::size_t waterfall_points = 0;
  for (double snr = 0.0; snr <= 40.0; snr += 2.0) {
    double pool_sum = 0.0;
    double pool_sq = 0.0;
    for (std::size_t t = 0; t < mult.size(); ++t) {
      const double p = pool.model(0).per(snr, t);
      pool_sum += static_cast<double>(mult[t]) * p;
      pool_sq += static_cast<double>(mult[t]) * p * p;
    }
    const double pool_mean = pool_sum / sum_m;
    const double pool_var = pool_sq / sum_m - pool_mean * pool_mean;
    double fresh_sum = 0.0;
    double fresh_sq = 0.0;
    for (const net::LinkPerModel& m : fresh) {
      for (std::size_t r = 0; r < m.realizations(); ++r) {
        const double p = m.per(snr, r);
        fresh_sum += p;
        fresh_sq += p * p;
      }
    }
    const double fresh_mean = fresh_sum / n_fresh;
    const double fresh_var = fresh_sq / n_fresh - fresh_mean * fresh_mean;
    const double se = std::sqrt(pool_var / n_pool + fresh_var / n_fresh);
    if (fresh_mean > 0.05 && fresh_mean < 0.95) ++waterfall_points;
    EXPECT_LE(std::abs(pool_mean - fresh_mean), 4.0 * se + 1e-12)
        << "snr " << snr << ": pool " << pool_mean << " vs per-link "
        << fresh_mean;
  }
  EXPECT_GE(waterfall_points, 3u);  // the sweep crosses the waterfall
}

TEST(PerTablePool, TablesBuiltCounterIsPinned) {
  // Hidden-terminal pair, RTS on: keys = data + ACK/CTS + RTS, each of
  // K = min(1024, 8 realizations x 2 flows) = 16 tables.
  const auto setup = net::make_hidden_terminal_setup(80.0);
  net::NetworkConfig cfg;
  cfg.duration_s = 0.05;
  cfg.rts_cts = true;
  cfg.error_model = pool_config(8);
  obs::Registry reg;
  cfg.registry = &reg;
  Rng rng(3);
  simulate_network(cfg, setup.nodes, setup.flows, rng);
  const obs::Counter* built = reg.find_counter("net.errormodel.tables_built");
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->value(), 48u);

  // No RTS key without the exchange; ARF adds the eight-rate ladder.
  // 63-node grid: 54 flows, K = min(1024, 8 x 54) = 432.
  net::NetworkConfig arf;
  arf.duration_s = 0.02;
  arf.error_model = pool_config(8);
  arf.rate_control = net::RateControlMode::kArf;
  const Deployment d = multibss63(arf);
  obs::Registry arf_reg;
  arf.registry = &arf_reg;
  net::ShardOptions opt;
  opt.jobs = 2;
  Rng arf_rng(4);
  net::simulate_network_sharded(arf, d.nodes, d.flows, opt, arf_rng);
  EXPECT_EQ(arf_reg.find_counter("net.errormodel.tables_built")->value(),
            9u * 432u);

  // Threshold reception builds no pool.
  net::NetworkConfig plain;
  plain.duration_s = 0.05;
  obs::Registry plain_reg;
  plain.registry = &plain_reg;
  Rng plain_rng(3);
  simulate_network(plain, setup.nodes, setup.flows, plain_rng);
  EXPECT_EQ(plain_reg.find_counter("net.errormodel.tables_built"), nullptr);
}

}  // namespace
}  // namespace wlan
