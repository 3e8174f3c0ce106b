#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "kube/cluster.hpp"

namespace ck = chase::kube;
namespace cc = chase::cluster;
namespace cn = chase::net;
namespace cs = chase::sim;
namespace cu = chase::util;

namespace {

/// A small testbed: N FIONA8 nodes on one switch.
struct Testbed {
  cs::Simulation sim;
  cn::Network net{sim};
  cc::Inventory inventory{net};
  chase::mon::Registry metrics;
  std::unique_ptr<ck::KubeCluster> kube;
  cn::NodeId switch_node;

  explicit Testbed(int nodes = 2, ck::KubeCluster::Options options = {}) {
    switch_node = net.add_node("switch");
    kube = std::make_unique<ck::KubeCluster>(sim, net, inventory, &metrics, options);
    for (int i = 0; i < nodes; ++i) {
      auto name = "fiona8-" + std::to_string(i);
      auto nn = net.add_node(name);
      net.add_link(nn, switch_node, cu::gbit_per_s(20), 1e-4);
      auto id = inventory.add(cc::fiona8(name, "UCSD"), nn);
      kube->register_node(id);
    }
  }
};

ck::Program sleep_program(double seconds) {
  return [seconds](ck::PodContext& ctx) -> cs::Task {
    co_await ctx.sim().sleep(seconds);
  };
}

ck::Program failing_program() {
  return [](ck::PodContext& ctx) -> cs::Task {
    co_await ctx.sim().sleep(1.0);
    ctx.fail("boom");
  };
}

ck::PodSpec simple_pod(double run_seconds, ck::ResourceList requests = {1, cu::gb(1), 0}) {
  ck::PodSpec spec;
  ck::ContainerSpec c;
  c.requests = requests;
  c.program = sleep_program(run_seconds);
  spec.containers.push_back(std::move(c));
  return spec;
}

}  // namespace

TEST(Kube, PodLifecycle) {
  Testbed tb;
  auto result = tb.kube->create_pod("default", "p1", simple_pod(10.0));
  ASSERT_TRUE(result.ok()) << result.error;
  auto pod = result.value;
  EXPECT_EQ(pod->phase, ck::PodPhase::Pending);
  tb.sim.run();
  EXPECT_EQ(pod->phase, ck::PodPhase::Succeeded);
  EXPECT_GE(pod->node, 0);
  EXPECT_GT(pod->started_at, 0.0);
  EXPECT_GE(pod->finished_at, pod->started_at + 10.0);
}

TEST(Kube, DuplicatePodRejected) {
  Testbed tb;
  ASSERT_TRUE(tb.kube->create_pod("default", "p1", simple_pod(1.0)).ok());
  EXPECT_FALSE(tb.kube->create_pod("default", "p1", simple_pod(1.0)).ok());
}

TEST(Kube, UnknownNamespaceRejected) {
  Testbed tb;
  EXPECT_FALSE(tb.kube->create_pod("nope", "p1", simple_pod(1.0)).ok());
}

TEST(Kube, FailingProgramYieldsFailedPhase) {
  Testbed tb;
  ck::PodSpec spec;
  ck::ContainerSpec c;
  c.program = failing_program();
  spec.containers.push_back(std::move(c));
  auto pod = tb.kube->create_pod("default", "bad", std::move(spec)).value;
  tb.sim.run();
  EXPECT_EQ(pod->phase, ck::PodPhase::Failed);
  EXPECT_EQ(pod->reason, "boom");
}

TEST(Kube, ResourcesReservedAndReleased) {
  Testbed tb(1);
  ck::ResourceList req{4, cu::gb(8), 2};
  auto pod = tb.kube->create_pod("default", "p1", simple_pod(5.0, req)).value;
  tb.sim.run(3.0);
  EXPECT_EQ(pod->phase, ck::PodPhase::Running);
  auto alloc = tb.kube->total_allocated();
  EXPECT_DOUBLE_EQ(alloc.cpu, 4);
  EXPECT_EQ(alloc.gpus, 2);
  EXPECT_EQ(pod->gpu_ids.size(), 2u);
  tb.sim.run();
  alloc = tb.kube->total_allocated();
  EXPECT_DOUBLE_EQ(alloc.cpu, 0);
  EXPECT_EQ(alloc.gpus, 0);
}

TEST(Kube, GpuDevicePluginGrantsDistinctDevices) {
  Testbed tb(1);
  auto p1 = tb.kube->create_pod("default", "a", simple_pod(50.0, {1, cu::gb(1), 4})).value;
  auto p2 = tb.kube->create_pod("default", "b", simple_pod(50.0, {1, cu::gb(1), 4})).value;
  tb.sim.run(10.0);
  ASSERT_EQ(p1->gpu_ids.size(), 4u);
  ASSERT_EQ(p2->gpu_ids.size(), 4u);
  for (int g1 : p1->gpu_ids) {
    for (int g2 : p2->gpu_ids) EXPECT_NE(g1, g2);
  }
}

TEST(Kube, PodsQueueWhenClusterFull) {
  Testbed tb(1);  // one node: 8 GPUs
  std::vector<ck::PodPtr> pods;
  for (int i = 0; i < 3; ++i) {
    pods.push_back(tb.kube
                       ->create_pod("default", "g" + std::to_string(i),
                                    simple_pod(10.0, {1, cu::gb(1), 4}))
                       .value);
  }
  tb.sim.run(5.0);
  // Only 2 fit (8 GPUs / 4 each); the third must wait.
  int running = 0, pending = 0;
  for (auto& p : pods) {
    running += p->phase == ck::PodPhase::Running;
    pending += p->phase == ck::PodPhase::Pending;
  }
  EXPECT_EQ(running, 2);
  EXPECT_EQ(pending, 1);
  tb.sim.run();
  for (auto& p : pods) EXPECT_EQ(p->phase, ck::PodPhase::Succeeded);
}

TEST(Kube, NodeSelectorRespected) {
  Testbed tb(2);
  // Give node 1 a special label.
  auto nn = tb.net.add_node("viz-node");
  tb.net.add_link(nn, tb.switch_node, cu::gbit_per_s(10), 1e-4);
  auto special = tb.inventory.add(cc::fiona8("viz-node", "UCM"), nn);
  tb.kube->register_node(special, {{"role", "viz"}});

  auto spec = simple_pod(1.0);
  spec.node_selector = {{"role", "viz"}};
  auto pod = tb.kube->create_pod("default", "p", std::move(spec)).value;
  tb.sim.run();
  EXPECT_EQ(pod->node, special);

  auto site_spec = simple_pod(1.0);
  site_spec.node_selector = {{"site", "UCM"}};
  auto pod2 = tb.kube->create_pod("default", "p2", std::move(site_spec)).value;
  tb.sim.run();
  EXPECT_EQ(pod2->node, special);
}

TEST(Kube, UnsatisfiableSelectorStaysPending) {
  Testbed tb;
  auto spec = simple_pod(1.0);
  spec.node_selector = {{"site", "Mars"}};
  auto pod = tb.kube->create_pod("default", "p", std::move(spec)).value;
  tb.sim.run(100.0);
  EXPECT_EQ(pod->phase, ck::PodPhase::Pending);
}

TEST(Kube, SchedulerSpreadsAcrossNodes) {
  Testbed tb(2);
  auto p1 = tb.kube->create_pod("default", "a", simple_pod(20.0, {8, cu::gb(8), 0})).value;
  auto p2 = tb.kube->create_pod("default", "b", simple_pod(20.0, {8, cu::gb(8), 0})).value;
  tb.sim.run(10.0);
  EXPECT_NE(p1->node, p2->node);
}

// BinPack scores a node -(cpu_free + gpu_free), which is below -1 on an
// idle FIONA8 for a small pod; the first feasible node must still win, and
// later pods must fill it before the next one is opened.
TEST(Kube, BinPackPlacesPodsOnIdleNodes) {
  ck::KubeCluster::Options options;
  options.policy = ck::KubeCluster::SchedulingPolicy::BinPack;
  Testbed tb(4, options);
  std::vector<ck::PodPtr> pods;
  for (int i = 0; i < 8; ++i) {
    pods.push_back(tb.kube
                       ->create_pod("default", "b" + std::to_string(i),
                                    simple_pod(100.0, {1, cu::gb(1), 2}))
                       .value);
  }
  tb.sim.run(10.0);
  std::set<int> used;
  for (auto& p : pods) {
    EXPECT_EQ(p->phase, ck::PodPhase::Running) << p->meta.name;
    used.insert(p->node);
  }
  EXPECT_EQ(used.size(), 2u);  // 8 pods x 2 GPUs fill two 8-GPU nodes
}

TEST(Kube, JobRunsToCompletion) {
  Testbed tb(2);
  ck::JobSpec spec;
  spec.ns = "default";
  spec.name = "download";
  spec.pod_template = simple_pod(10.0);
  spec.completions = 6;
  spec.parallelism = 3;
  auto job = tb.kube->create_job(spec).value;
  tb.sim.run();
  EXPECT_TRUE(job->complete);
  EXPECT_EQ(job->succeeded, 6);
  EXPECT_EQ(job->active, 0);
  EXPECT_TRUE(job->done->fired());
  // Two waves of 3 pods, ~10s each plus start overhead.
  EXPECT_GT(job->finished_at, 20.0);
  EXPECT_LT(job->finished_at, 40.0);
}

TEST(Kube, JobParallelismBounded) {
  Testbed tb(2);
  ck::JobSpec spec;
  spec.ns = "default";
  spec.name = "j";
  spec.pod_template = simple_pod(30.0);
  spec.completions = 10;
  spec.parallelism = 4;
  auto job = tb.kube->create_job(spec).value;
  tb.sim.run(15.0);
  EXPECT_EQ(job->active, 4);
  int running = 0;
  for (const auto& pod : tb.kube->list_pods("default", {{"job", "j"}})) {
    running += pod->phase == ck::PodPhase::Running;
  }
  EXPECT_EQ(running, 4);
}

TEST(Kube, JobBackoffLimitFailsJob) {
  Testbed tb;
  ck::JobSpec spec;
  spec.ns = "default";
  spec.name = "cursed";
  ck::ContainerSpec c;
  c.program = failing_program();
  spec.pod_template.containers.push_back(std::move(c));
  spec.completions = 1;
  spec.backoff_limit = 2;
  auto job = tb.kube->create_job(spec).value;
  tb.sim.run();
  EXPECT_TRUE(job->failed_state);
  EXPECT_FALSE(job->complete);
  EXPECT_EQ(job->failed, 3);  // initial + 2 retries
}

TEST(Kube, ReplicaSetMaintainsReplicas) {
  Testbed tb(2);
  ck::ReplicaSetSpec spec;
  spec.ns = "default";
  spec.name = "redis";
  spec.replicas = 2;
  spec.labels = {{"app", "redis"}};
  // Long-running service pods.
  spec.pod_template = simple_pod(1e6);
  auto rs = tb.kube->create_replica_set(spec).value;
  tb.sim.run(20.0);
  EXPECT_EQ(rs->active, 2);
  int running = 0;
  for (const auto& pod : tb.kube->list_pods("default", {{"app", "redis"}})) {
    running += pod->phase == ck::PodPhase::Running;
  }
  EXPECT_EQ(running, 2);
}

TEST(Kube, ReplicaSetReplacesFailedPod) {
  Testbed tb(2);
  ck::ReplicaSetSpec spec;
  spec.ns = "default";
  spec.name = "svc";
  spec.replicas = 1;
  spec.labels = {{"app", "svc"}};
  spec.pod_template = simple_pod(1e6);
  tb.kube->create_replica_set(spec);
  tb.sim.run(10.0);
  tb.kube->delete_pod("default", "svc-0");
  tb.sim.run(30.0);
  auto replacement = tb.kube->get_pod("default", "svc-1");
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(replacement->phase, ck::PodPhase::Running);
}

TEST(Kube, DeleteReplicaSetStopsReplacement) {
  Testbed tb(2);
  ck::ReplicaSetSpec spec;
  spec.ns = "default";
  spec.name = "svc";
  spec.replicas = 2;
  spec.labels = {{"app", "svc"}};
  spec.pod_template = simple_pod(1e6);
  tb.kube->create_replica_set(spec);
  tb.sim.run(10.0);
  tb.kube->delete_replica_set("default", "svc");
  tb.sim.run(50.0);
  for (const auto& pod : tb.kube->list_pods("default", {{"app", "svc"}})) {
    EXPECT_TRUE(pod->terminal());
  }
}

TEST(Kube, NodeLossReschedulesJobPods) {
  Testbed tb(2);
  ck::JobSpec spec;
  spec.ns = "default";
  spec.name = "resilient";
  spec.pod_template = simple_pod(60.0, {20, cu::gb(32), 0});
  spec.completions = 2;
  spec.parallelism = 2;
  spec.backoff_limit = 10;
  auto job = tb.kube->create_job(spec).value;
  tb.sim.run(30.0);
  // Each node holds one pod (20 CPU of 24). Kill node 0.
  tb.inventory.set_up(0, false);
  tb.sim.run();
  EXPECT_TRUE(job->complete);
  EXPECT_EQ(job->succeeded, 2);
  // Node-loss evictions are rescheduled without counting as failures.
  EXPECT_EQ(job->failed, 0);
  int evicted = 0;
  for (const auto& pod : tb.kube->list_pods("default", {{"job", "resilient"}})) {
    evicted += pod->reason == "NodeLost";
  }
  EXPECT_GE(evicted, 1);
}

TEST(Kube, NamespaceQuotaEnforced) {
  Testbed tb;
  tb.kube->create_namespace("atmos");
  ck::ResourceQuota quota;
  quota.hard = {4, cu::gb(64), 8};
  tb.kube->set_quota("atmos", quota);
  ASSERT_TRUE(tb.kube->create_pod("atmos", "a", simple_pod(1e6, {3, cu::gb(1), 0})).ok());
  // 3 + 2 > 4 CPUs -> rejected.
  auto denied = tb.kube->create_pod("atmos", "b", simple_pod(1e6, {2, cu::gb(1), 0}));
  EXPECT_FALSE(denied.ok());
  EXPECT_NE(denied.error.find("quota"), std::string::npos);
  // Other namespaces unaffected.
  EXPECT_TRUE(tb.kube->create_pod("default", "c", simple_pod(1e6, {2, cu::gb(1), 0})).ok());
}

TEST(Kube, QuotaReleasedOnPodCompletion) {
  Testbed tb;
  tb.kube->create_namespace("atmos");
  ck::ResourceQuota quota;
  quota.hard = {4, cu::gb(64), 8};
  tb.kube->set_quota("atmos", quota);
  ASSERT_TRUE(tb.kube->create_pod("atmos", "a", simple_pod(5.0, {4, cu::gb(1), 0})).ok());
  tb.sim.run();
  EXPECT_TRUE(tb.kube->create_pod("atmos", "b", simple_pod(5.0, {4, cu::gb(1), 0})).ok());
}

TEST(Kube, MaxPodsQuota) {
  Testbed tb;
  tb.kube->create_namespace("small");
  ck::ResourceQuota quota;
  quota.hard = {1000, cu::gb(1000), 100};
  quota.max_pods = 2;
  tb.kube->set_quota("small", quota);
  EXPECT_TRUE(tb.kube->create_pod("small", "a", simple_pod(1e6)).ok());
  EXPECT_TRUE(tb.kube->create_pod("small", "b", simple_pod(1e6)).ok());
  EXPECT_FALSE(tb.kube->create_pod("small", "c", simple_pod(1e6)).ok());
}

TEST(Kube, AuthRequiredWhenEnabled) {
  Testbed tb;
  chase::auth::CILogon sso;
  chase::auth::Rbac rbac;
  sso.register_provider("ucsd.edu");
  tb.kube->enable_auth(&sso, &rbac);
  tb.kube->create_namespace("atmos");

  // No token: rejected.
  EXPECT_FALSE(tb.kube->create_pod("atmos", "x", simple_pod(1.0)).ok());

  auto token = *sso.login("ucsd.edu", "sellars");
  // Not yet a member: rejected.
  EXPECT_FALSE(tb.kube->create_pod("atmos", "x", simple_pod(1.0), {}, {}, &token).ok());

  rbac.grant_member("atmos", token.identity);
  EXPECT_TRUE(tb.kube->create_pod("atmos", "x", simple_pod(1.0), {}, {}, &token).ok());
  // But not in someone else's namespace.
  tb.kube->create_namespace("carl-uci");
  EXPECT_FALSE(tb.kube->create_pod("carl-uci", "y", simple_pod(1.0), {}, {}, &token).ok());
}

TEST(Kube, JobControllerPodsBypassRbacButRespectQuota) {
  Testbed tb;
  chase::auth::CILogon sso;
  chase::auth::Rbac rbac;
  sso.register_provider("ucsd.edu");
  tb.kube->enable_auth(&sso, &rbac);
  tb.kube->create_namespace("atmos");
  auto token = *sso.login("ucsd.edu", "pi");
  rbac.grant_admin("atmos", token.identity);

  ck::JobSpec spec;
  spec.ns = "atmos";
  spec.name = "j";
  spec.pod_template = simple_pod(5.0);
  spec.completions = 2;
  spec.parallelism = 2;
  auto job = tb.kube->create_job(spec, &token);
  ASSERT_TRUE(job.ok()) << job.error;
  tb.sim.run();
  EXPECT_TRUE(job.value->complete);
}

TEST(Kube, ServiceResolvesRunningPodsRoundRobin) {
  Testbed tb(2);
  ck::ReplicaSetSpec spec;
  spec.ns = "default";
  spec.name = "redis";
  spec.replicas = 2;
  spec.labels = {{"app", "redis"}};
  spec.pod_template = simple_pod(1e6);
  tb.kube->create_replica_set(spec);
  tb.kube->create_service({"default", "redis", {{"app", "redis"}}});
  EXPECT_FALSE(tb.kube->resolve_service("default", "redis").has_value());  // not up yet
  tb.sim.run(20.0);
  auto first = tb.kube->resolve_service("default", "redis");
  auto second = tb.kube->resolve_service("default", "redis");
  ASSERT_TRUE(first && second);
  EXPECT_NE((*first)->meta.name, (*second)->meta.name);
}

TEST(Kube, ImagePullPaysNetworkCostOncePerNode) {
  ck::KubeCluster::Options opts;
  Testbed tb0(0, opts);
  // Build a testbed with a registry.
  auto registry = tb0.net.add_node("registry");
  tb0.net.add_link(registry, tb0.switch_node, 100e6, 1e-3);  // slow: 100 MB/s
  tb0.kube->options();  // silence unused warnings path
  // Recreate cluster with registry option.
  ck::KubeCluster::Options with_reg;
  with_reg.registry_node = registry;
  ck::KubeCluster kube(tb0.sim, tb0.net, tb0.inventory, nullptr, with_reg);
  auto nn = tb0.net.add_node("n0");
  tb0.net.add_link(nn, tb0.switch_node, cu::gbit_per_s(20), 1e-4);
  auto mid = tb0.inventory.add(cc::fiona8("n0", "UCSD"), nn);
  kube.register_node(mid);

  ck::PodSpec spec = simple_pod(1.0);
  spec.containers[0].image = "tensorflow/ffn";
  spec.containers[0].image_size = cu::gb(1);  // 10s at 100 MB/s
  auto p1 = kube.create_pod("default", "p1", spec).value;
  tb0.sim.run();
  const double first_start = p1->started_at;
  EXPECT_GT(first_start, 10.0);  // paid the pull

  auto p2 = kube.create_pod("default", "p2", spec).value;
  tb0.sim.run();
  // Cached: starts in ~container_start_latency + scheduling.
  EXPECT_LT(p2->started_at - p2->created_at, 3.0);
}

TEST(Kube, PodUsageMetricsRecorded) {
  Testbed tb;
  auto program = [](ck::PodContext& ctx) -> cs::Task {
    ctx.set_memory_usage(cu::gb(10));
    co_await ctx.compute(40.0, 4.0);  // 10s at 4 cores
  };
  ck::PodSpec spec;
  ck::ContainerSpec c;
  c.requests = {4, cu::gb(16), 0};
  c.program = program;
  spec.containers.push_back(std::move(c));
  tb.kube->create_pod("default", "worker", std::move(spec), {{"step", "1"}});

  auto stop = cs::make_event();
  tb.metrics.start_sampler(tb.sim, 1.0, stop);
  tb.sim.schedule(30.0, [&] { stop->trigger(tb.sim); });
  tb.sim.run(60.0);

  auto cpu = tb.metrics.select("pod_cpu_cores", {{"pod", "worker"}});
  ASSERT_EQ(cpu.size(), 1u);
  EXPECT_DOUBLE_EQ(cpu[0].second->max_over_time(), 4.0);
  auto memory = tb.metrics.select("pod_memory_bytes", {{"step", "1"}});
  ASSERT_EQ(memory.size(), 1u);
  EXPECT_DOUBLE_EQ(memory[0].second->max_over_time(), static_cast<double>(cu::gb(10)));
  // Series closed at zero after termination.
  EXPECT_DOUBLE_EQ(cpu[0].second->last(), 0.0);
}

TEST(Kube, GpuComputeUsesAllGrantedGpus) {
  Testbed tb(1);
  static double elapsed;
  elapsed = -1;
  auto program = [](ck::PodContext& ctx) -> cs::Task {
    const double t0 = ctx.sim().now();
    co_await ctx.gpu_compute(80.0);  // 80 GPU-seconds over 8 GPUs -> 10s
    elapsed = ctx.sim().now() - t0;
  };
  ck::PodSpec spec;
  ck::ContainerSpec c;
  c.requests = {1, cu::gb(4), 8};
  c.program = program;
  spec.containers.push_back(std::move(c));
  tb.kube->create_pod("default", "train", std::move(spec));
  tb.sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 10.0);
}

TEST(Kube, MultiContainerPodWaitsForAll) {
  Testbed tb;
  ck::PodSpec spec;
  for (double d : {5.0, 15.0}) {
    ck::ContainerSpec c;
    c.name = "c" + std::to_string(static_cast<int>(d));
    c.requests = {1, cu::gb(1), 0};
    c.program = sleep_program(d);
    spec.containers.push_back(std::move(c));
  }
  auto pod = tb.kube->create_pod("default", "multi", std::move(spec)).value;
  tb.sim.run();
  EXPECT_EQ(pod->phase, ck::PodPhase::Succeeded);
  EXPECT_GE(pod->finished_at - pod->started_at, 15.0);
  EXPECT_LT(pod->finished_at - pod->started_at, 16.0);
}
