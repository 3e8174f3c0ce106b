#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kube/cluster.hpp"
#include "kube/federation.hpp"
#include "util/check.hpp"

namespace ck = chase::kube;
namespace cc = chase::cluster;
namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

/// A federation testbed: `sites` member clusters over one simulation, each
/// with its own star fabric (site switch + FIONA8 leaves) and its own
/// KubeCluster; site switches are joined by a WAN mesh.
struct FedBed {
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  std::vector<cn::NodeId> switches;
  std::vector<std::unique_ptr<ck::KubeCluster>> kube;
  ck::FederationController fed;

  explicit FedBed(int sites = 2, int nodes_per_site = 2,
                  ck::KubeCluster::Options options = {}) {
    for (int s = 0; s < sites; ++s) {
      const std::string site_name = "site-" + std::to_string(s);
      switches.push_back(net.add_node(site_name + "-sw", s));
      kube.push_back(std::make_unique<ck::KubeCluster>(sim, net, inventory,
                                                       nullptr, options));
      for (int i = 0; i < nodes_per_site; ++i) {
        const std::string name = site_name + "-fiona8-" + std::to_string(i);
        const cn::NodeId nn = net.add_node(name, s);
        net.add_link(nn, switches.back(), cu::gbit_per_s(20), 1e-4);
        kube.back()->register_node(inventory.add(cc::fiona8(name, site_name), nn));
      }
      fed.add_site(site_name, *kube.back());
    }
    for (int a = 0; a < sites; ++a) {  // WAN mesh between site cores
      for (int b = a + 1; b < sites; ++b) {
        net.add_link(switches[a], switches[b], cu::gbit_per_s(100), 30e-3);
      }
    }
  }
};

ck::JobSpec one_shot_job(const std::string& name, ck::ResourceList requests,
                         double run_seconds = 1.0) {
  ck::JobSpec job;
  job.ns = "default";
  job.name = name;
  ck::ContainerSpec c;
  c.requests = requests;
  c.program = [run_seconds](ck::PodContext& ctx) -> cs::Task {
    co_await ctx.sim().sleep(run_seconds);
  };
  job.pod_template.containers.push_back(std::move(c));
  job.completions = 1;
  job.parallelism = 1;
  return job;
}

}  // namespace

// --- multi-site network ------------------------------------------------------

TEST(MultiSiteNet, LinksClassifiedWanByEndpointSites) {
  FedBed bed(/*sites=*/2, /*nodes_per_site=*/1);
  // Leaf uplinks stay intra-site; the switch-to-switch link is WAN.
  const cn::LinkId wan = bed.net.find_link(bed.switches[0], bed.switches[1]);
  ASSERT_GE(wan, 0);
  EXPECT_TRUE(bed.net.link_is_wan(wan));
  int wan_at_core = 0;
  for (cn::LinkId l : bed.net.links_at(bed.switches[0])) {
    wan_at_core += bed.net.link_is_wan(l);
  }
  EXPECT_EQ(wan_at_core, 1);  // only the switch-to-switch leg
  const auto boundary = bed.net.site_boundary_links(0);
  ASSERT_EQ(boundary.size(), 1u);
  EXPECT_EQ(boundary[0], wan);
}

TEST(MultiSiteNet, IntraSiteRouteSurvivesSitePartition) {
  // Hierarchical routing model: intra-site traffic never exits the site, so
  // cutting every WAN link leaves same-site transfers untouched while
  // cross-site transfers fail.
  FedBed bed(/*sites=*/2, /*nodes_per_site=*/2);
  const cn::NodeId a0 = bed.inventory.machine(0).net_node;
  const cn::NodeId a1 = bed.inventory.machine(1).net_node;
  const cn::NodeId b0 = bed.inventory.machine(2).net_node;
  for (cn::LinkId l : bed.net.site_boundary_links(0)) bed.net.set_link_up(l, false);

  auto local = bed.net.transfer(a0, a1, cu::gb(1));
  auto remote = bed.net.transfer(a0, b0, cu::gb(1));
  bed.sim.run();
  EXPECT_FALSE(local->failed);
  EXPECT_TRUE(remote->failed);
}

TEST(MultiSiteNet, SiteOfReportsRegistrationSite) {
  FedBed bed(/*sites=*/3, /*nodes_per_site=*/1);
  EXPECT_EQ(bed.net.site_count(), 3u);
  EXPECT_EQ(bed.net.site_of(bed.switches[0]), 0);
  EXPECT_EQ(bed.net.site_of(bed.switches[2]), 2);
}

// --- register_node label semantics (collision regression) --------------------

TEST(KubeLabels, ExplicitLabelsWinOverImplicitButMachineIsForced) {
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  ck::KubeCluster kube(sim, net, inventory, nullptr);
  const cn::NodeId nn = net.add_node("n0");
  const cc::MachineId m =
      inventory.add(cc::fiona8("n0", "UCSD"), nn);
  kube.register_node(m, {{"site", "maintenance"},
                         {"gpu-model", "relabeled"},
                         {"machine", "999"},
                         {"pool", "gold"}});
  const ck::NodeInfo& info = kube.node(m);
  EXPECT_EQ(info.labels.at("site"), "maintenance");       // explicit wins
  EXPECT_EQ(info.labels.at("gpu-model"), "relabeled");    // explicit wins
  EXPECT_EQ(info.labels.at("machine"), std::to_string(m));  // reserved: forced
  EXPECT_EQ(info.labels.at("pool"), "gold");

  // The label index agrees with the final label set — the overridden
  // implicit values must not linger as phantom postings.
  EXPECT_EQ(kube.nodes_matching({{"site", "maintenance"}}),
            std::vector<cc::MachineId>{m});
  EXPECT_TRUE(kube.nodes_matching({{"site", "UCSD"}}).empty());
  EXPECT_TRUE(kube.nodes_matching({{"machine", "999"}}).empty());
}

TEST(KubeLabels, ReRegisterReplacesLabelSetWithoutAccumulating) {
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  ck::KubeCluster kube(sim, net, inventory, nullptr);
  const cc::MachineId m = inventory.add(cc::fiona("n0", "UCSD"), net.add_node("n0"));
  kube.register_node(m, {{"pool", "gold"}});
  ASSERT_EQ(kube.nodes_matching({{"pool", "gold"}}).size(), 1u);
  kube.register_node(m, {{"pool", "silver"}});
  EXPECT_TRUE(kube.nodes_matching({{"pool", "gold"}}).empty());
  EXPECT_EQ(kube.nodes_matching({{"pool", "silver"}}),
            std::vector<cc::MachineId>{m});
  // Double registration must not duplicate the implicit postings either.
  EXPECT_EQ(kube.nodes_matching({{"site", "UCSD"}}).size(), 1u);
}

// --- sampled scheduler -------------------------------------------------------

TEST(SampledScheduler, SamplingStillSchedulesEverythingAndPinsHold) {
  // A pool larger than the sampling threshold: every pod must still bind
  // (sampling only limits scoring work, never feasibility), and DaemonSet
  // machine-pins keep resolving through the fast path.
  ck::KubeCluster::Options opt;
  opt.score_sample_max = 4;
  FedBed bed(/*sites=*/1, /*nodes_per_site=*/12, opt);
  ck::KubeCluster& kube = *bed.kube[0];
  for (int i = 0; i < 24; ++i) {
    auto r = kube.create_pod("default", "p" + std::to_string(i),
                             [] {
                               ck::PodSpec s;
                               ck::ContainerSpec c;
                               c.requests = {4, cu::gb(4), 2};
                               s.containers.push_back(std::move(c));
                               return s;
                             }());
    ASSERT_TRUE(r.ok()) << r.error;
  }
  ck::DaemonSetSpec ds;
  ds.ns = "default";
  ds.name = "exporter";
  ck::ContainerSpec c;
  c.requests = {0.1, cu::gb(1), 0};
  c.program = [](ck::PodContext& ctx) -> cs::Task {  // long-lived daemon
    co_await ctx.sim().sleep(1e6);
  };
  ds.pod_template.containers.push_back(std::move(c));
  ASSERT_TRUE(kube.create_daemon_set(ds).ok());
  bed.sim.run(30.0);
  int running_daemons = 0;
  for (const auto& pod : kube.list_pods("default", {{"daemonset", "exporter"}})) {
    running_daemons += pod->phase == ck::PodPhase::Running;
  }
  EXPECT_EQ(running_daemons, 12);
  for (int i = 0; i < 24; ++i) {
    EXPECT_GE(kube.get_pod("default", "p" + std::to_string(i))->node, 0) << i;
  }
}

// --- federation controller ---------------------------------------------------

TEST(Federation, PlacesByCapacityClassFeasibility) {
  FedBed bed(/*sites=*/2, /*nodes_per_site=*/1);
  // Site 1's only machine is CPU-only; a GPU job is only feasible at site 0.
  ck::KubeCluster cpu_only(bed.sim, bed.net, bed.inventory, nullptr);
  const cn::NodeId nn = bed.net.add_node("cpu-0", 1);
  bed.net.add_link(nn, bed.switches[1], cu::gbit_per_s(20), 1e-4);
  cpu_only.register_node(bed.inventory.add(cc::fiona("cpu-0", "site-cpu"), nn));
  ck::FederationController fed;
  fed.add_site("gpu-site", *bed.kube[0]);
  fed.add_site("cpu-site", cpu_only);

  const auto gpu_place = fed.place(one_shot_job("train", {1, cu::gb(1), 4}));
  EXPECT_TRUE(gpu_place.ok());
  EXPECT_EQ(gpu_place.site_name, "gpu-site");
  EXPECT_EQ(gpu_place.reason, "capacity");

  const auto huge = fed.place(one_shot_job("huge", {4096, cu::gb(1), 0}));
  EXPECT_FALSE(huge.ok());
  EXPECT_EQ(huge.reason, "infeasible");
}

TEST(Federation, DataLocalityDominatesHeadroom) {
  FedBed bed(/*sites=*/2, /*nodes_per_site=*/2);
  ck::FederationController fed;
  fed.add_site("site-0", *bed.kube[0], {"imagenet"});
  fed.add_site("site-1", *bed.kube[1]);
  // Tie on headroom (identical empty clusters): registration order would pick
  // site-0 anyway, so bias the dataset to site-0 and load site-0 down — the
  // dataset must still win over site-1's larger headroom.
  auto r = fed.submit_job(one_shot_job("warm", {20, cu::gb(8), 6}, 50.0));
  ASSERT_TRUE(r.ok()) << r.error;
  bed.sim.run(10.0);
  const auto placed = fed.place(one_shot_job("train", {1, cu::gb(1), 1}), "imagenet");
  EXPECT_EQ(placed.site_name, "site-0");
  EXPECT_EQ(placed.reason, "data-locality");
  // Without the dataset, headroom routes the job away from the loaded site.
  const auto spread = fed.place(one_shot_job("other", {1, cu::gb(1), 1}));
  EXPECT_EQ(spread.site_name, "site-1");
  EXPECT_EQ(spread.reason, "capacity");
}

TEST(Federation, SubmitStampsSiteAndRunsToCompletion) {
  FedBed bed(/*sites=*/2, /*nodes_per_site=*/2);
  auto r = bed.fed.submit_job(one_shot_job("train", {2, cu::gb(2), 1}));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value->spec.labels.at("federation-site"), "site-0");
  EXPECT_EQ(r.value->spec.pod_template.node_selector.at("site"), "site-0");
  bed.sim.run();
  EXPECT_TRUE(r.value->complete);
  // The pod ran on a site-0 machine.
  const auto pods = bed.kube[0]->list_pods("default", {{"job", "train"}});
  ASSERT_EQ(pods.size(), 1u);
  EXPECT_EQ(bed.inventory.machine(pods[0]->node).spec.site, "site-0");
}

TEST(Federation, InventoryAtSiteCarvesPools) {
  FedBed bed(/*sites=*/2, /*nodes_per_site=*/3);
  const auto pool = bed.inventory.at_site("site-1");
  ASSERT_EQ(pool.size(), 3u);
  for (cc::MachineId m : pool) {
    EXPECT_EQ(bed.inventory.machine(m).spec.site, "site-1");
  }
}

// --- placement golden hashes -------------------------------------------------

namespace {

/// FNV-1a over every pod watch notification (uid, phase, node, sim time), in
/// notification order. Each bound pod reports its node when it starts
/// running or is evicted, so the hash pins which node every placement chose
/// and when; a scheduler change that alters any choice changes the hash.
struct PlacementHash {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

struct PlacementRun {
  std::uint64_t hash = 0;
  int preempted = 0;
  int completed_jobs = 0;
};

ck::JobSpec golden_job(const std::string& name, ck::ResourceList requests,
                       double run_seconds, int completions, int parallelism,
                       int priority = 0, ck::Labels selector = {}) {
  ck::JobSpec job = one_shot_job(name, requests, run_seconds);
  job.completions = completions;
  job.parallelism = parallelism;
  job.backoff_limit = 1000;
  job.pod_template.priority = priority;
  job.pod_template.node_selector = std::move(selector);
  return job;
}

/// One site of 12 FIONA8s and 4 CPU-only FIONAs (pool=even/odd labels)
/// running a mixed job stream plus a DaemonSet, with a cordon, a NoSchedule
/// and a NoExecute taint, a node crash, a live relabel, a drain, and a
/// high-priority pod that only fits by preempting low-priority fillers.
PlacementRun run_placement_script(ck::KubeCluster::SchedulingPolicy policy,
                                  int score_sample_max) {
  ck::KubeCluster::Options opt;
  opt.policy = policy;
  opt.score_sample_max = score_sample_max;
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  ck::KubeCluster kube(sim, net, inventory, nullptr, opt);
  const cn::NodeId sw = net.add_node("sw");
  std::vector<cc::MachineId> machines;
  for (int i = 0; i < 16; ++i) {
    const std::string name = "n" + std::to_string(i);
    const cn::NodeId nn = net.add_node(name);
    net.add_link(nn, sw, cu::gbit_per_s(20), 1e-4);
    const cc::MachineId m = inventory.add(
        i < 12 ? cc::fiona8(name, "UCSD") : cc::fiona(name, "UCSD"), nn);
    kube.register_node(m, {{"pool", i % 2 == 0 ? "even" : "odd"}});
    machines.push_back(m);
  }

  PlacementRun run;
  PlacementHash hash;
  kube.watch_pods([&](const ck::PodPtr& pod) {
    hash.mix(pod->meta.uid);
    hash.mix(static_cast<std::uint64_t>(pod->phase));
    hash.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(pod->node)));
    hash.mix(std::bit_cast<std::uint64_t>(sim.now()));
    run.preempted += pod->reason == "Preempted";
  });

  ck::DaemonSetSpec ds;
  ds.ns = "default";
  ds.name = "exporter";
  ck::ContainerSpec daemon;
  daemon.requests = {0.25, cu::gb(1), 0};
  daemon.program = [](ck::PodContext& ctx) -> cs::Task { co_await ctx.sim().sleep(1e6); };
  ds.pod_template.containers.push_back(std::move(daemon));
  EXPECT_TRUE(kube.create_daemon_set(ds).ok());

  std::vector<ck::JobPtr> jobs;
  const auto submit = [&](ck::JobSpec job) {
    auto r = kube.create_job(std::move(job));
    EXPECT_TRUE(r.ok()) << r.error;
    if (r.ok()) jobs.push_back(r.value);
  };
  submit(golden_job("gpu-small", {2, cu::gb(2), 1}, 3.0, 60, 24));
  submit(golden_job("cpu", {3.5, cu::gb(4), 0}, 2.0, 40, 16));
  submit(golden_job("odd-pool", {1, cu::gb(1), 2}, 4.0, 30, 8, 0, {{"pool", "odd"}}));
  submit(golden_job("wide", {12, cu::gb(32), 4}, 5.0, 10, 4));
  sim.schedule(10.0, [&] { submit(golden_job("filler", {12, cu::gb(8), 6}, 50.0, 12, 12)); });
  sim.schedule(12.0, [&] { submit(golden_job("urgent", {1, cu::gb(1), 8}, 5.0, 1, 1, 5)); });

  sim.schedule(6.0, [&] { kube.cordon(machines[3]); });
  sim.schedule(14.0, [&] { kube.uncordon(machines[3]); });
  sim.schedule(8.0, [&] {
    kube.add_taint(machines[5], ck::Taint{"maint", "x", ck::TaintEffect::NoSchedule});
  });
  sim.schedule(20.0, [&] { kube.remove_taint(machines[5], "maint"); });
  sim.schedule(9.0, [&] {
    kube.add_taint(machines[6], ck::Taint{"evict", "x", ck::TaintEffect::NoExecute});
  });
  sim.schedule(16.0, [&] { kube.remove_taint(machines[6], "evict"); });
  sim.schedule(10.5, [&] { inventory.set_up(machines[7], false); });
  sim.schedule(18.0, [&] { inventory.set_up(machines[7], true); });
  sim.schedule(22.0, [&] { kube.register_node(machines[2], {{"pool", "odd"}}); });
  sim.schedule(25.0, [&] { kube.drain(machines[9]); });
  sim.schedule(30.0, [&] { kube.uncordon(machines[9]); });

  sim.run(400.0);
  kube.check_invariants();
  for (const auto& job : jobs) run.completed_jobs += job->complete;
  run.hash = hash.h;
  return run;
}

void expect_golden(ck::KubeCluster::SchedulingPolicy policy, int score_sample_max,
                   std::uint64_t golden) {
  const int prev_audit = cu::set_audit_level(2);
  const PlacementRun run = run_placement_script(policy, score_sample_max);
  cu::set_audit_level(prev_audit);
  EXPECT_EQ(run.completed_jobs, 6);
  EXPECT_GT(run.preempted, 0);  // the urgent pod went through try_preempt
  EXPECT_EQ(run.hash, golden) << std::hex << "0x" << run.hash;
}

}  // namespace

// Golden values recorded on the scheduler before the dense node table
// replaced the feasibility buckets; placements must stay bit-identical.
// The two BinPack values were re-recorded when pick_node stopped rejecting
// nodes whose BinPack score is below -1: the script's {1 CPU, 2 GPU}
// odd-pool pods are that shape, and the old values had pinned them Pending.
TEST(PlacementGolden, SpreadExhaustive) {
  expect_golden(ck::KubeCluster::SchedulingPolicy::Spread, 256, 0x75e0c522ec50eccfull);
}

TEST(PlacementGolden, BinPackExhaustive) {
  expect_golden(ck::KubeCluster::SchedulingPolicy::BinPack, 256, 0x09ae718c2c832ee1ull);
}

TEST(PlacementGolden, SpreadSampledRotor) {
  expect_golden(ck::KubeCluster::SchedulingPolicy::Spread, 3, 0x3d41bcad9d2a01fcull);
}

TEST(PlacementGolden, BinPackSampledRotor) {
  expect_golden(ck::KubeCluster::SchedulingPolicy::BinPack, 3, 0x27229a2b81da9045ull);
}
