/// \file bench_core_throughput.cpp
/// Core event-loop + network-fabric throughput across cluster sizes.
///
/// This is the simulator's own speedometer (ROADMAP item 1), not a paper
/// figure: it drives the two hot paths that every CHASE-CI workload sits on
/// — the scheduler (timer ping-pong coroutines) and the flow-level network
/// (concurrent max-min-fair transfers) — and reports events/sec and
/// sim-seconds per wall-second per size. Results are committed as
/// BENCH_core_throughput.json so every later PR shows its perf delta;
/// tools/bench_compare diffs a fresh run against the committed baseline.
///
///   $ bench_core_throughput                  # human table, all sizes
///   $ bench_core_throughput --json --out f   # machine-readable baseline
///   $ bench_core_throughput --smoke          # 10x fewer iterations (CI)
///
/// Audits run at level 0 here on purpose: this bench measures the hot path
/// itself; audit-sweep cost is a separate, deliberate knob (README
/// "Performance lint & baselines"). The workload is fully seeded — the
/// event count per size is deterministic, only wall time varies; with
/// --json each size runs kJsonRepetitions times and reports the fastest.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fastest_of.hpp"
#include "chaos/chaos.hpp"
#include "cluster/machine.hpp"
#include "kube/cluster.hpp"
#include "kube/federation.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using chase::net::Network;
using chase::net::NodeId;
using chase::sim::Simulation;
using chase::sim::Task;
using chase::util::Rng;

struct SizeSpec {
  const char* name;
  int nodes;          // leaf nodes, one 10GbE uplink each to a core switch
  int ticks;          // timer ping-pong iterations per node
  int streams;        // concurrent transfer loops per node
  int transfers;      // sequential transfers per stream
  bool churn;         // short flows + short think: flow add/remove dominates
};

// Five rungs: scheduler-dominated (small), mixed, flow-dominated (large —
// ~nodes*streams concurrent flows keep the max-min recompute hot), the
// fig1-scale cliff probe (xlarge, 512 nodes), and a high-flow-churn
// scenario where nearly every event is a flow arrival or completion — the
// worst case for the scoped recompute and the completion index.
constexpr SizeSpec kSizes[] = {
    {"small", 8, 20000, 2, 400, false},
    {"medium", 32, 8000, 2, 200, false},
    {"large", 128, 2000, 4, 60, false},
    {"xlarge", 512, 500, 4, 15, false},
    {"churn", 128, 100, 8, 40, true},
};

struct FedSpec {
  const char* name;
  int sites;          // member clusters, each its own star fabric
  int nodes_per_site; // FIONA8 leaves behind each site core
  int jobs;           // federation-submitted jobs
  int completions;    // pods per job (scaled by --smoke)
  int parallelism;
  bool churn;         // seeded drains + node crashes + a site partition
};

// Federation rungs: PRP-scale hierarchical topology — sites of FIONA8s
// behind a site core, cores joined by a 100GbE / 30ms WAN mesh — driven
// through the federation controller, one KubeCluster per site. `federation`
// pushes raw placement volume (2048 nodes, >1e5 pods, every image pulled
// across the fabric from a site-0 registry), keeping the inverted label
// index, the sampled scorer, and the per-site route caches hot. `fedchurn`
// runs a smaller job stream while seeded drains, a 25% node-crash wave, and
// a full site partition force continuous rescheduling.
constexpr FedSpec kFedSizes[] = {
    {"federation", 4, 512, 512, 200, 8, false},
    {"fedchurn", 4, 512, 128, 100, 8, true},
};

struct Result {
  std::string name;
  int nodes = 0;
  std::uint64_t events = 0;
  double sim_s = 0.0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double sim_per_wall = 0.0;
};

/// Pure scheduler traffic: a coroutine that sleeps `ticks` times with a
/// seeded jitter. Each iteration is one pop + one push on the event heap.
Task ticker(Simulation* sim, Rng rng, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    co_await sim->sleep(rng.uniform(0.5e-3, 1.5e-3));
  }
}

/// Flow churn: sequential seeded transfers to random peers with a short
/// think time, so ~streams*nodes flows are concurrently active and every
/// arrival/completion re-runs the max-min fair-share recompute. Churn mode
/// shrinks the transfers and the think time so flow starts/finishes — not
/// payload progress — dominate the event mix.
Task traffic(Simulation* sim, Network* net, NodeId self, int nodes, Rng rng,
             int transfers, bool churn) {
  for (int i = 0; i < transfers; ++i) {
    NodeId dst = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
    if (dst == self) dst = (dst + 1) % nodes;
    const auto bytes = static_cast<chase::util::Bytes>(
        churn ? rng.uniform(2e5, 2e6) : rng.uniform(4e6, 32e6));
    co_await net->send(self, dst, bytes);
    co_await sim->sleep(rng.exponential(churn ? 1e-3 : 5e-3));
  }
}

Result run_size(const SizeSpec& spec, int scale_div) {
  Simulation sim;
  Network net(sim);

  const NodeId core = net.add_node("core");
  std::vector<NodeId> leaves;
  leaves.reserve(static_cast<std::size_t>(spec.nodes));
  for (int i = 0; i < spec.nodes; ++i) {
    std::string leaf_name = "n";
    leaf_name += std::to_string(i);
    const NodeId n = net.add_node(std::move(leaf_name));
    net.add_link(n, core, chase::util::gbit_per_s(10.0), 0.5e-3);
    leaves.push_back(n);
  }

  const int ticks = std::max(1, spec.ticks / scale_div);
  const int transfers = std::max(1, spec.transfers / scale_div);
  Rng root(0xC0DEC0DEULL + static_cast<std::uint64_t>(spec.nodes));
  for (int i = 0; i < spec.nodes; ++i) {
    sim.spawn(ticker(&sim, root.fork(), ticks));
    for (int s = 0; s < spec.streams; ++s) {
      sim.spawn(traffic(&sim, &net, leaves[static_cast<std::size_t>(i)],
                        spec.nodes, root.fork(), transfers, spec.churn));
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  sim.run();
  const auto wall_end = std::chrono::steady_clock::now();

  Result r;
  r.name = spec.name;
  r.nodes = spec.nodes;
  r.events = sim.events_processed();
  r.sim_s = sim.now();
  r.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  r.events_per_sec = static_cast<double>(r.events) / std::max(r.wall_s, 1e-9);
  r.sim_per_wall = r.sim_s / std::max(r.wall_s, 1e-9);
  return r;
}

Result run_federation(const FedSpec& spec, int scale_div) {
  namespace ck = chase::kube;
  namespace cc = chase::cluster;
  namespace ch = chase::chaos;

  Simulation sim;
  Network net(sim);
  cc::Inventory inventory(net);

  // Hierarchical multi-site topology: per-site star fabrics (10GbE leaf
  // uplinks) joined by a WAN mesh of the site cores.
  std::vector<NodeId> cores;
  cores.reserve(static_cast<std::size_t>(spec.sites));
  for (int s = 0; s < spec.sites; ++s) {
    const std::string site = "site-" + std::to_string(s);
    cores.push_back(net.add_node(site + "-core", s));
    for (int i = 0; i < spec.nodes_per_site; ++i) {
      const NodeId leaf = net.add_node(site + "-n" + std::to_string(i), s);
      net.add_link(leaf, cores.back(), chase::util::gbit_per_s(10.0), 0.5e-3);
      inventory.add(cc::fiona8(site + "-n" + std::to_string(i), site), leaf);
    }
  }
  for (int a = 0; a < spec.sites; ++a) {
    for (int b = a + 1; b < spec.sites; ++b) {
      net.add_link(cores[static_cast<std::size_t>(a)],
                   cores[static_cast<std::size_t>(b)],
                   chase::util::gbit_per_s(100.0), 30e-3);
    }
  }

  // One orchestrator per site (the shard); every image pull travels the
  // fabric from a single site-0 registry, so cross-site pulls cross the WAN.
  ck::KubeCluster::Options opt;
  opt.registry_node = cores[0];
  std::vector<std::unique_ptr<ck::KubeCluster>> clusters;
  ck::FederationController fed;
  for (int s = 0; s < spec.sites; ++s) {
    const std::string site = "site-" + std::to_string(s);
    clusters.push_back(
        std::make_unique<ck::KubeCluster>(sim, net, inventory, nullptr, opt));
    for (cc::MachineId m : inventory.at_site(site)) clusters.back()->register_node(m);
    fed.add_site(site, *clusters.back(), {"ds-" + std::to_string(s)});
  }

  // The workload: GPU jobs routed by the federation controller, each biased
  // to a home dataset so placement mixes locality hits with headroom picks.
  const int completions = std::max(1, spec.completions / scale_div);
  Rng root(0xFEDC0DE5ULL + static_cast<std::uint64_t>(spec.jobs));
  for (int j = 0; j < spec.jobs; ++j) {
    ck::JobSpec job;
    job.ns = "default";
    job.name = "fedjob-" + std::to_string(j);
    ck::ContainerSpec c;
    c.requests = {2.0, chase::util::gb(2.0), 1};
    const double run_s = root.uniform(0.5, 2.0);
    c.program = [run_s](ck::PodContext& ctx) -> Task {
      co_await ctx.sim().sleep(run_s);
    };
    job.pod_template.containers.push_back(std::move(c));
    job.completions = completions;
    job.parallelism = spec.parallelism;
    job.backoff_limit = 1 << 20;  // disruptions don't count; real failures none
    auto r = fed.submit_job(std::move(job), "ds-" + std::to_string(j % spec.sites));
    if (!r.ok()) {
      std::fprintf(stderr, "federation rung: submit failed: %s\n", r.error.c_str());
      std::exit(2);
    }
  }

  std::unique_ptr<ch::ChaosInjector> injector;
  if (spec.churn) {
    ch::ChaosPlan plan(/*seed=*/2029);
    plan.crash_fraction(/*at=*/30.0, inventory.at_site("site-1"), 0.25,
                        /*down_for=*/60.0);
    plan.partition_site(/*at=*/60.0, /*site=*/spec.sites - 1, /*down_for=*/45.0);
    injector = std::make_unique<ch::ChaosInjector>(sim, net, inventory, plan);
    injector->arm();
    // Seeded drain/uncordon waves across all sites, concurrent with the
    // crashes: the scheduler re-places the drained pods under the selector
    // and sampling paths while the label/feasibility indexes churn.
    Rng drains(0xD7A1DULL);
    for (int k = 0; k < 64; ++k) {
      const int s = static_cast<int>(drains.uniform_u64(
          static_cast<std::uint64_t>(spec.sites)));
      const auto pool = inventory.at_site("site-" + std::to_string(s));
      const cc::MachineId victim =
          pool[drains.uniform_u64(pool.size())];
      ck::KubeCluster* cluster = clusters[static_cast<std::size_t>(s)].get();
      const double at = drains.uniform(10.0, 90.0);
      const double heal = drains.uniform(5.0, 15.0);
      sim.schedule(at, [cluster, victim] { cluster->drain(victim); });
      sim.schedule(at + heal, [cluster, victim] { cluster->uncordon(victim); });
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  sim.run();
  const auto wall_end = std::chrono::steady_clock::now();

  Result r;
  r.name = spec.name;
  r.nodes = spec.sites * spec.nodes_per_site;
  r.events = sim.events_processed();
  r.sim_s = sim.now();
  r.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  r.events_per_sec = static_cast<double>(r.events) / std::max(r.wall_s, 1e-9);
  r.sim_per_wall = r.sim_s / std::max(r.wall_s, 1e-9);
  return r;
}

void print_json(std::FILE* out, const std::vector<Result>& results, int scale_div) {
  std::fprintf(out, "{\n  \"bench\": \"core_throughput\",\n  \"schema\": 1,\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"audit_level\": 0,\n  \"sizes\": [\n",
               scale_div > 1 ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"nodes\": %d, \"events\": %llu, "
                 "\"sim_s\": %.6f, \"wall_s\": %.6f, \"events_per_sec\": %.1f, "
                 "\"sim_per_wall\": %.3f}%s\n",
                 r.name.c_str(), r.nodes,
                 static_cast<unsigned long long>(r.events), r.sim_s, r.wall_s,
                 r.events_per_sec, r.sim_per_wall,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

/// Repetitions per size with --json (see bench/fastest_of.hpp). Sizes run
/// 0.1-2 s each, longer than the disttrain rungs, so three suffice.
constexpr int kJsonRepetitions = 3;

/// Every repetition of a size must replay identically.
bool same_run(const Result& a, const Result& b) {
  return a.events == b.events && a.sim_s == b.sim_s;
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int scale_div = 1;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--smoke") {
      scale_div = 10;
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_core_throughput: --out needs a value\n");
        return 2;
      }
      out_path = argv[++i];
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: bench_core_throughput [--json] [--out FILE] [--smoke]\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_core_throughput: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  // Hot-path speedometer: invariant sweeps are measured elsewhere.
  chase::util::set_audit_level(0);

  std::vector<Result> results;
  results.reserve(std::size(kSizes) + std::size(kFedSizes));
  const int reps = json ? kJsonRepetitions : 1;
  for (const SizeSpec& spec : kSizes) {
    results.push_back(chase::bench::fastest_of(
        reps, [&] { return run_size(spec, scale_div); }, same_run));
  }
  for (const FedSpec& spec : kFedSizes) {
    results.push_back(chase::bench::fastest_of(
        reps, [&] { return run_federation(spec, scale_div); }, same_run));
  }

  if (json) {
    std::FILE* out = stdout;
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "bench_core_throughput: cannot write %s\n",
                     out_path.c_str());
        return 2;
      }
    }
    print_json(out, results, scale_div);
    if (out != stdout) std::fclose(out);
  } else {
    chase::util::Table table(
        {"Size", "Nodes", "Events", "Sim s", "Wall s", "Events/s", "Sim-s/wall-s"});
    for (const Result& r : results) {
      table.add_row({r.name, std::to_string(r.nodes), std::to_string(r.events),
                     fmt(r.sim_s, 1), fmt(r.wall_s, 3), fmt(r.events_per_sec, 0),
                     fmt(r.sim_per_wall, 1)});
    }
    std::fputs(table.render("Core event-loop & network throughput").c_str(), stdout);
  }
  return 0;
}
