// city-shards and city-border: one simulate_network_sharded call on a
// city deployment, the way bench_city runs it.
//
// city-shards is the bench_city 10k-node city: 10x10 apartment
// buildings at 160 m pitch, every STA a saturated uplink, PER reception
// with 4 dB shadowing and 8 fading realizations, component sharding
// (one shard per building), 0.25 s simulated. Most of the call is
// engine setup — the per-flow LinkPerModel dictionaries.
//
// city-border is one connected 12x12-building city at 120 m pitch
// (14,400 nodes) run as 36 border tiles of 2x2 buildings in lockstep
// epochs: threshold reception, Poisson uplinks at 20 packets/s per flow
// (1,728 Mbps offered, below saturation), 0.5 s simulated, frame
// lifecycle ledger and invariant auditor on. Its time goes to events,
// epochs, border messages and the serial ledger/registry merge.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "mac/timing.h"
#include "net/errormodel.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using wlan::net::Flow;
using wlan::net::NetworkConfig;
using wlan::net::NetworkResult;
using wlan::net::NodeConfig;
using wlan::net::ShardOptions;
using wlan::net::ShardPlan;

constexpr std::size_t kApartments = 5;  // per building side
constexpr double kApartmentPitchM = 10.0;
constexpr std::size_t kStas = 3;        // per apartment, one uplink each
constexpr double kStaRadiusM = 2.0;
constexpr std::size_t kPayloadBytes = 1000;

struct Deployment {
  std::vector<NodeConfig> nodes;
  std::vector<Flow> flows;
};

/// bench_city's apartment-block city: `grid` x `grid` buildings on a
/// `pitch_m` street grid, each with kApartments^2 apartments of one AP
/// and kStas STAs, every STA an uplink at `rate_pps` (0 = saturated).
Deployment make_city(std::size_t grid, double pitch_m, double rate_pps) {
  Deployment d;
  for (std::size_t by = 0; by < grid; ++by) {
    for (std::size_t bx = 0; bx < grid; ++bx) {
      for (std::size_t ay = 0; ay < kApartments; ++ay) {
        for (std::size_t ax = 0; ax < kApartments; ++ax) {
          const double x = static_cast<double>(bx) * pitch_m +
                           static_cast<double>(ax) * kApartmentPitchM;
          const double y = static_cast<double>(by) * pitch_m +
                           static_cast<double>(ay) * kApartmentPitchM;
          const std::size_t ap = d.nodes.size();
          d.nodes.push_back({{x, y}});
          for (std::size_t s = 0; s < kStas; ++s) {
            const double angle =
                2.0 * M_PI * static_cast<double>(s) / static_cast<double>(kStas);
            d.nodes.push_back({{x + kStaRadiusM * std::cos(angle),
                                y + kStaRadiusM * std::sin(angle)}});
            d.flows.push_back({d.nodes.size() - 1, ap, rate_pps});
          }
        }
      }
    }
  }
  return d;
}

struct City {
  const char* name;
  std::size_t grid;
  double pitch_m;
  double rate_pps;
  NetworkConfig cfg;
  ShardOptions shard;
};

City city_shards(Size size) {
  City c{"city-shards", size == Size::kFull ? 10u : 2u, 160.0, 0.0, {}, {}};
  c.cfg.duration_s = size == Size::kFull ? 0.25 : 0.05;
  c.cfg.payload_bytes = kPayloadBytes;
  c.cfg.error_model.model = wlan::net::RxModel::kPerModel;
  c.cfg.error_model.shadowing_sigma_db = 4.0;
  c.cfg.error_model.realizations = 8;
  c.cfg.pathloss.exponent_after = 5.0;
  return c;
}

City city_border(Size size) {
  City c{"city-border", size == Size::kFull ? 12u : 4u, 120.0, 20.0, {}, {}};
  c.cfg.duration_s = size == Size::kFull ? 0.5 : 0.1;
  c.cfg.payload_bytes = kPayloadBytes;
  c.cfg.pathloss.exponent_after = 5.0;
  c.cfg.lifecycle.enabled = true;
  c.cfg.lifecycle.audit = true;
  c.shard.border = true;
  c.shard.border_tile_m = 2.0 * c.pitch_m;  // 2x2 buildings per tile
  return c;
}

struct Setup {
  Deployment city;
  ShardPlan plan;
};

Setup setup(const City& c, Tracer& tracer) {
  const Tracer::Scope span(tracer, "city.setup");
  Setup s;
  {
    const Tracer::Scope build(tracer, "city.make_deployment");
    s.city = make_city(c.grid, c.pitch_m, c.rate_pps);
  }
  const Tracer::Scope plan(tracer, "net.plan_shards");
  s.plan = wlan::net::plan_shards(c.cfg, s.city.nodes, c.shard, &s.city.flows);
  return s;
}

struct Call {
  NetworkResult result;
  double wall_s = 0.0;
  std::uint64_t events = 0;  ///< sim.events_executed, from the registry
  bool ok = false;
};

Call simulate(const City& c, const Setup& s, const NetworkConfig& cfg,
              std::uint64_t seed, Tracer& tracer) {
  Call call;
  wlan::obs::Registry registry;
  NetworkConfig run_cfg = cfg;
  run_cfg.registry = &registry;
  wlan::Rng rng(seed);
  try {
    const Tracer::Scope span(tracer, "net.simulate_network_sharded");
    call.result = wlan::net::simulate_network_sharded(
        run_cfg, s.city.nodes, s.city.flows, c.shard, rng, &s.plan);
    call.wall_s = span.elapsed_s();
    call.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: simulate_network_sharded threw: %s\n", c.name,
                 e.what());
  }
  if (const auto* counter = registry.find_counter("sim.events_executed"))
    call.events = counter->value();
  return call;
}

/// Aggregate city-shards throughput per building at the default seed
/// (11): 7,051.4 Mbps over 100 buildings. Every building is its own
/// shard, so the per-building figure is comparable across city sizes.
constexpr double kShardsMbpsPerBuilding = 70.514;

/// Output checks that hold for any seed and pin no RNG realization.
bool check(const City& c, const Setup& s, const Call& call,
           const Call* reference) {
  if (!call.ok) return false;
  const NetworkResult& r = call.result;
  bool ok = r.flows.size() == s.city.flows.size() && call.events > 0;
  std::uint64_t delivered = 0;
  for (const auto& f : r.flows) {
    ok = ok && f.delivered + f.drops <= f.attempts;
    delivered += f.delivered;
  }
  ok = ok && delivered == r.total_delivered;
  const double buildings = static_cast<double>(c.grid * c.grid);
  if (!c.shard.border) {
    // Saturated uplinks: the per-building throughput is a property of
    // the building, not of one seed. The band is 8% at full size and
    // wider for the four-building short city.
    const double per_building = r.aggregate_throughput_mbps / buildings;
    const double band = c.grid >= 10 ? 0.08 : 0.25;
    ok = ok && std::fabs(per_building / kShardsMbpsPerBuilding - 1.0) <= band;
  } else {
    // Below saturation the network carries the offered load, within 2%
    // or 4 Poisson standard deviations of the expected packet count,
    // whichever is wider (the short city carries few packets).
    const double packets = c.rate_pps * static_cast<double>(s.city.flows.size()) *
                           c.cfg.duration_s;
    const double offered_mbps =
        packets * 8.0 * static_cast<double>(c.cfg.payload_bytes) /
        c.cfg.duration_s / 1e6;
    const double tol = std::max(0.02, 4.0 / std::sqrt(packets));
    ok = ok && std::fabs(r.aggregate_throughput_mbps / offered_mbps - 1.0) <= tol;
    ok = ok && r.lifecycle.breaches == 0 &&
         r.lifecycle.ledger.delivered == r.total_delivered;
  }
  if (reference) {
    // Same seed, same inputs: the repeat must reproduce the first call.
    ok = ok && r.total_delivered == reference->result.total_delivered &&
         r.data_tx_count == reference->result.data_tx_count &&
         call.events == reference->events;
  }
  if (!ok) {
    std::fprintf(stderr, "%s: output check failed (throughput %.1f Mbps)\n",
                 c.name, r.aggregate_throughput_mbps);
  }
  return ok;
}

void print_counts(const Setup& s, const Call& call, std::uint64_t seed) {
  const NetworkResult& r = call.result;
  print_line("counts",
             JsonObject()
                 .add("seed", seed)
                 .add("nodes", static_cast<std::uint64_t>(s.city.nodes.size()))
                 .add("flows", static_cast<std::uint64_t>(s.city.flows.size()))
                 .add("sim.events_executed", call.events)
                 .add("net.border.epochs",
                      static_cast<std::uint64_t>(r.border.epochs))
                 .add("net.border.messages", r.border.messages)
                 .add("net.data_tx", r.data_tx_count)
                 .add("net.delivered", r.total_delivered)
                 .add("throughput_mbps", r.aggregate_throughput_mbps));
}

/// The net.errormodel layer on its own, at city-shards' link setting
/// (OFDM, 24 Mbps, 1028-byte PSDU, 8 realizations): mean time to build
/// one LinkPerModel over a fixed batch, and per_batch lookup throughput.
void errormodel_metrics(const City& c, const Options& opt, Tracer& tracer,
                        Outcome& out) {
  const std::size_t builds = opt.size == Size::kFull ? 64 : 8;
  const std::size_t psdu = c.cfg.payload_bytes + 28;  // MAC header + FCS
  wlan::Rng rng(opt.seed);
  std::optional<wlan::net::LinkPerModel> model;
  double build_s = 0.0;
  {
    const Tracer::Scope span(tracer, "net.errormodel.build_batch");
    for (std::size_t i = 0; i < builds; ++i) {
      model.emplace(c.cfg.generation, c.cfg.data_rate_mbps, psdu,
                    c.cfg.error_model, rng);
    }
    build_s = span.elapsed_s();
  }
  out.metric("net.errormodel.link_model_build_ms",
             1e3 * build_s / static_cast<double>(builds), "ms");

  constexpr std::size_t kBatch = 4096;
  const std::size_t batches = opt.size == Size::kFull ? 512 : 16;
  std::vector<double> snr(kBatch);
  std::vector<std::uint32_t> realization(kBatch);
  std::vector<double> per(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    snr[i] = rng.uniform(-5.0, 40.0);
    realization[i] = static_cast<std::uint32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(model->realizations())));
  }
  bool ok = true;
  double lookup_s = 0.0;
  {
    const Tracer::Scope span(tracer, "net.errormodel.per_batch");
    for (std::size_t b = 0; b < batches; ++b) {
      model->per_batch(snr, realization, per);
      ok = ok && per[b % kBatch] >= 0.0 && per[b % kBatch] <= 1.0;
    }
    lookup_s = span.elapsed_s();
  }
  for (const double p : per) ok = ok && p >= 0.0 && p <= 1.0;
  if (!ok) throw std::runtime_error("per_batch returned a PER outside [0, 1]");
  out.metric("net.errormodel.per_lookups_per_s",
             static_cast<double>(batches * kBatch) / lookup_s, "1/s");
}

/// Setups before each timed call of an untraced run; their median is
/// `setup_s`, sampled across the whole measuring window.
constexpr std::size_t kSetupsPerCall = 3;

Outcome run_city(const City& c, const Options& opt, Tracer& tracer) {
  Outcome out;
  std::vector<double> setup_s;
  std::optional<Setup> s;
  auto set_up = [&](std::size_t times) {
    for (std::size_t i = 0; i < times; ++i) {
      tracer.next_run();
      s.reset();  // free the previous deployment before building the next
      const double t0 = now_s();
      s.emplace(setup(c, tracer));
      setup_s.push_back(now_s() - t0);
    }
  };

  if (!opt.trace) {
    std::vector<Call> calls;
    const double t_start = now_s();
    double last_setup_s = 0.0;
    do {
      const double t0 = now_s();
      set_up(kSetupsPerCall);
      last_setup_s = now_s() - t0;
      tracer.next_run();
      calls.push_back(simulate(c, *s, c.cfg, opt.seed, tracer));
      out.call(check(c, *s, calls.back(), calls.size() > 1 ? &calls[0] : nullptr));
    } while (now_s() - t_start + last_setup_s + calls.back().wall_s <=
             opt.seconds);
    print_counts(*s, calls[0], opt.seed);
    const double node_s =
        static_cast<double>(s->city.nodes.size()) * c.cfg.duration_s;
    std::vector<double> pps;
    std::vector<double> nsps;
    std::vector<double> walls;
    std::vector<double> border_setup;
    std::vector<double> epochs;
    std::vector<double> merge;
    for (const Call& call : calls) {
      if (!call.ok) continue;
      pps.push_back(static_cast<double>(call.result.data_tx_count) / call.wall_s);
      nsps.push_back(node_s / call.wall_s);
      walls.push_back(call.wall_s);
      border_setup.push_back(call.result.border.setup_s);
      epochs.push_back(call.result.border.wall_s);
      merge.push_back(call.result.border.merge_s);
    }
    JsonObject reps;
    reps.add("setup_s", setup_s).add("wall_s", walls);
    if (c.shard.border) {
      reps.add("border_setup_s", border_setup)
          .add("epoch_wall_s", epochs)
          .add("merge_s", merge);
    }
    print_line("reps", reps);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("packets_per_s", median(pps), "1/s");
    out.metric("node_s_per_s", median(nsps), "s/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run. Order matters for the memory readings: plan, then the
  // one-slot probe (engine setup only), then the full calls.
  set_up(1);
  const std::uint32_t setup_run = tracer.run();
  out.metric("net.shard.plan_s", tracer.total_s("net.plan_shards", setup_run), "s");
  out.metric("net.shard.shards", static_cast<double>(s->plan.shards.size()), "count");
  out.metric("net.shard.edges", static_cast<double>(s->plan.n_edges()), "count");
  out.metric("net.shard.border_edges",
             static_cast<double>(s->plan.total_border_edges()), "count");
  out.metric("net.shard.load_imbalance", s->plan.load_imbalance(), "ratio");
  out.metric("mem.rss_after_plan_mb", peak_rss_mb(), "MB");

  tracer.next_run();
  NetworkConfig probe_cfg = c.cfg;
  probe_cfg.duration_s = wlan::mac::mac_timing(c.cfg.generation).slot_s;
  const Call probe = simulate(c, *s, probe_cfg, opt.seed, tracer);
  if (!probe.ok) throw std::runtime_error("one-slot probe call failed");
  out.metric("mem.rss_after_engine_setup_mb", peak_rss_mb(), "MB");

  tracer.next_run();
  const Call plain = simulate(c, *s, c.cfg, opt.seed, tracer);
  out.call(check(c, *s, plain, nullptr));
  print_counts(*s, plain, opt.seed);

  tracer.next_run();
  LibraryProfile lib;
  const Call traced = simulate(c, *s, c.cfg, opt.seed, tracer);
  lib.stop(traced.wall_s);
  out.call(check(c, *s, traced, &plain));

  const NetworkResult& r = plain.result;
  out.metric("net.engine_setup_s", probe.wall_s, "s");
  out.metric("net.events_s", plain.wall_s - probe.wall_s, "s");
  out.metric("sim.events_executed", static_cast<double>(plain.events), "count");
  out.metric("sim.events_per_s", static_cast<double>(plain.events) / plain.wall_s,
             "1/s");
  out.metric("net.data_tx", static_cast<double>(r.data_tx_count), "count");
  out.metric("net.delivered", static_cast<double>(r.total_delivered), "count");
  out.metric("net.delivery_ratio",
             r.data_tx_count ? static_cast<double>(r.total_delivered) /
                                   static_cast<double>(r.data_tx_count)
                             : 0.0,
             "ratio");
  out.metric("net.span.setup_s", lib.self_s("net.setup"), "s");
  out.metric("net.span.events_s", lib.self_s("net.events"), "s");
  out.metric("net.span.finalize_s", lib.self_s("net.finalize"), "s");
  out.metric("net.border.epochs", static_cast<double>(r.border.epochs), "count");
  out.metric("net.border.messages", static_cast<double>(r.border.messages), "count");
  out.metric("net.border.epoch_wall_s", r.border.wall_s, "s");
  out.metric("net.border.busy_s", r.border.busy_s, "s");
  out.metric("net.border.critical_path_s", r.border.critical_path_s, "s");
  out.metric("net.border.utilization", r.border.utilization, "ratio");
  out.metric("net.border.imbalance", r.border.imbalance, "ratio");
  out.metric("net.border.setup_s", r.border.setup_s, "s");
  out.metric("net.border.finalize_s", r.border.finalize_s, "s");
  out.metric("net.border.merge_s", r.border.merge_s, "s");
  lib.add_kernel_metrics(out);
  lib.add_pool_metrics(out);
  out.metric("obs.trace_overhead", traced.wall_s / plain.wall_s, "ratio");

  if (c.cfg.lifecycle.enabled) {
    tracer.next_run();
    NetworkConfig off_cfg = c.cfg;
    off_cfg.lifecycle.enabled = false;
    const Call off = simulate(c, *s, off_cfg, opt.seed, tracer);
    if (!off.ok) throw std::runtime_error("lifecycle-off call failed");
    const auto& ledger = r.lifecycle.ledger;
    out.metric("obs.lifecycle.overhead_s", plain.wall_s - off.wall_s, "s");
    out.metric("obs.lifecycle.frames",
               static_cast<double>(ledger.delivered + ledger.dropped +
                                   ledger.in_flight),
               "count");
  }
  if (c.cfg.error_model.model == wlan::net::RxModel::kPerModel) {
    tracer.next_run();
    errormodel_metrics(c, opt, tracer, out);
  }

  print_line("setup_share",
             JsonObject()
                 .add("engine_setup_s", probe.wall_s)
                 .add("call_s", plain.wall_s)
                 .add("engine_setup_share", probe.wall_s / plain.wall_s));
  return out;
}

}  // namespace

Outcome run_city_shards(const Options& opt, Tracer& tracer) {
  return run_city(city_shards(opt.size), opt, tracer);
}

Outcome run_city_border(const Options& opt, Tracer& tracer) {
  return run_city(city_border(opt.size), opt, tracer);
}

}  // namespace perfbench
