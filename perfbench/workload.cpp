/// \file workload.cpp
/// perfbench workload runner: runs ONE seeded workload once in this process
/// (build the testbed, submit the workload, run it to completion, check the
/// outputs) and prints one JSON object on stdout. perfbench/run.py calls it
/// repeatedly and aggregates; see perfbench/README.md for the metrics.
///
///   $ perfbench_workload --workload connect|federation|flowchurn|disttrain
///                        [--seed N] [--smoke] [--trace-out FILE]
///                        [--check-reference]
///
/// `--seed N` offsets each workload's default seed (N = 0 is the default
/// input). The event loop always runs in fixed Simulation::run(until)
/// sim-time slices and the host time of each slice is printed, so run.py can
/// take the fastest time of every slice across repetitions; slicing adds no
/// events. `--trace-out FILE` also records host-time spans around the
/// benchmark's own calls into the simulator; they add no events either, so
/// every sim and count value is the same as without it. Spans stay in memory
/// and are written as Chrome trace-event JSON to FILE at exit.
/// `--check-reference` makes disttrain also run the single-trainer reference
/// and compare hashes; run.py asks for it on the first and on every traced
/// repetition, and checks that all repetitions report the same hash.
///
/// Wall-clock timers here only measure; nothing they read reaches the
/// simulation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "kube/cluster.hpp"
#include "kube/federation.hpp"
#include "ml/disttrain.hpp"
#include "net/network.hpp"
#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

namespace cc = chase::cluster;
namespace ck = chase::kube;
namespace co = chase::core;
namespace cs = chase::sim;
namespace cu = chase::util;
namespace ml = chase::ml;
using chase::net::Network;
using chase::net::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans: name, host start/end, parent, optional counter args. Recorded only
// when tracing is on; each Span object is one begin/end pair.

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  int begin(std::string name) {
    if (!on_) return -1;
    Record r;
    r.name = std::move(name);
    r.parent = open_.empty() ? -1 : open_.back();
    r.start_us = now_us();
    records_.push_back(std::move(r));
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    records_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }
  void arg(int id, std::string key, double value) {
    if (id < 0) return;
    records_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key), value);
  }
  double seconds(int id) const {
    if (id < 0) return 0.0;
    const Record& r = records_[static_cast<std::size_t>(id)];
    return (r.end_us - r.start_us) * 1e-6;
  }
  /// Total host seconds over every span called `name`.
  double total_seconds(const std::string& name) const {
    double s = 0.0;
    for (const Record& r : records_) {
      if (r.name == name) s += (r.end_us - r.start_us) * 1e-6;
    }
    return s;
  }
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d",
                   r.name.c_str(), r.start_us, r.end_us - r.start_us, i, r.parent);
      for (const auto& [key, value] : r.args) {
        std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
      }
      std::fprintf(f, "}}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }
  /// Ends the span (once) and returns its host seconds; 0 when tracing is off.
  double close() {
    if (open_) t_.end(id_);
    open_ = false;
    return t_.seconds(id_);
  }

 private:
  Tracer& t_;
  int id_;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries the parent's peak across fork+exec into it.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// One run's result. `exact` holds sim and count values (deterministic for a
// seed, identical with and without tracing); `host` holds traced host times.

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  // read when the run ends, before any reference check
  std::vector<double> slice_host_s;  // host seconds of each event-loop slice
  std::vector<std::pair<std::string, double>> exact;
  std::vector<std::pair<std::string, double>> traced;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

struct SliceStats {
  std::size_t peak_active_flows = 0;
  struct Slice {
    double sim_t0, sim_t1, host_s;
  };
  std::vector<Slice> slices;

  std::vector<double> host_seconds() const {
    std::vector<double> out;
    out.reserve(slices.size());
    for (const Slice& s : slices) out.push_back(s.host_s);
    return out;
  }
};

/// Event loop: the events in run(until) slices of `slice` sim-seconds, with
/// the host time of every slice recorded; slicing adds no events. Traced, each
/// slice is also a span carrying its sim interval and counter deltas.
SliceStats run_loop(cs::Simulation& sim, Network& net, Tracer& tracer, double slice) {
  SliceStats out;
  Span loop(tracer, "sim.loop");
  double t = sim.now();
  while (!sim.empty()) {
    const double t0 = t;
    t += slice;
    const std::uint64_t ev0 = sim.events_processed();
    const double bytes0 = net.total_bytes_delivered();
    const auto h0 = Clock::now();
    {
      Span s(tracer, "sim.slice");
      sim.run(t);
      if (tracer.on()) {
        tracer.arg(s.id(), "sim_t0", t0);
        tracer.arg(s.id(), "sim_t1", t);
        tracer.arg(s.id(), "events", static_cast<double>(sim.events_processed() - ev0));
        tracer.arg(s.id(), "net_bytes", net.total_bytes_delivered() - bytes0);
        tracer.arg(s.id(), "active_flows", static_cast<double>(net.active_flows()));
      }
    }
    out.peak_active_flows = std::max(out.peak_active_flows, net.active_flows());
    out.slices.push_back({t0, t, seconds_since(h0)});
  }
  return out;
}

/// Pod pending times (created -> started, sim seconds) and count.
void add_pod_metrics(Result& r, const std::vector<ck::PodPtr>& pods) {
  std::vector<double> pending;
  pending.reserve(pods.size());
  for (const ck::PodPtr& p : pods) {
    if (p->started_at >= 0.0) pending.push_back(p->started_at - p->created_at);
  }
  std::sort(pending.begin(), pending.end());
  auto rank = [&](double q) {
    if (pending.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(pending.size())));
    return pending[std::min(pending.size(), std::max<std::size_t>(k, 1)) - 1];
  };
  r.exact.emplace_back("kube.pods", static_cast<double>(pods.size()));
  r.exact.emplace_back("kube.pending_p50_sim_s", rank(0.50));
  r.exact.emplace_back("kube.pending_p99_sim_s", rank(0.99));
}

/// Runs every check_invariants() in `fn` at audit level 2 with a recording
/// failure handler; returns the number of violations.
template <typename Fn>
std::uint64_t count_invariant_failures(Fn&& fn) {
  const std::uint64_t before = cu::check_failure_count();
  const int level = cu::set_audit_level(2);
  auto prev = cu::set_check_failure_handler([](const cu::CheckContext& c) {
    std::fprintf(stderr, "perfbench: %s(%s) at %s:%d: %s\n", c.kind, c.expr, c.file,
                 c.line, c.message.c_str());
  });
  fn();
  cu::set_check_failure_handler(std::move(prev));
  cu::set_audit_level(level);
  return cu::check_failure_count() - before;
}

// ---------------------------------------------------------------------------
// connect: full paper-scale CONNECT Table I.

struct PaperRow {
  int pods, cpus, gpus;
  double data, memory, minutes;  // minutes < 0: the paper reports N/A
};
constexpr PaperRow kTable1[4] = {
    {14, 42, 0, 246e9, 225e9, 37},
    {1, 1, 1, 381e6, 14.8e9, 306},
    {50, 50, 50, 246e9, 600e9, 1133},
    {1, 1, 1, 5.8e9, 12e9, -1},
};

/// Samples the metric registry every `period` sim-seconds until `stop`
/// fires, as mon::Registry::start_sampler does, with a span per call.
cs::Task sampler(cs::Simulation* sim, chase::mon::Registry* reg, double period,
                 cs::EventPtr stop, Tracer* tracer, std::uint64_t* samples) {
  while (true) {
    {
      Span s(*tracer, "mon.sample_now");
      reg->sample_now(sim->now());
    }
    ++*samples;
    if (stop->fired()) co_return;
    co_await sim->sleep(period);
  }
}

/// Records the sim time at which `ev` fires.
cs::Task record_when(cs::EventPtr ev, cs::Simulation* sim, double* at) {
  co_await ev->wait(*sim);
  *at = sim->now();
}

Result run_connect(std::uint64_t seed, Tracer& tracer) {
  Result r;
  const auto t_setup = Clock::now();
  std::unique_ptr<co::Nautilus> bed;
  {
    Span s(tracer, "setup.testbed");
    bed = std::make_unique<co::Nautilus>();
  }
  co::ConnectWorkflowParams params;
  params.straggler_seed = 2027 + seed;
  std::unique_ptr<co::ConnectWorkflow> cwf;
  {
    Span s(tracer, "setup.workflow");
    cwf = std::make_unique<co::ConnectWorkflow>(*bed, params);
  }
  std::uint64_t samples = 0;
  double done_at = -1.0;
  {
    Span s(tracer, "setup.submit");
    cs::EventPtr done = cwf->workflow().start(bed->sim);
    bed->sim.spawn(sampler(&bed->sim, &bed->metrics, 60.0, done, &tracer, &samples));
    bed->sim.spawn(record_when(done, &bed->sim, &done_at));
  }
  r.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  const SliceStats loop = run_loop(bed->sim, bed->net, tracer, 60.0);
  r.slice_host_s = loop.host_seconds();
  r.wall_s = seconds_since(t_run);
  r.peak_rss_mb = peak_rss_mb();

  const auto& reports = cwf->workflow().reports();
  r.attempted = cwf->scaled_file_count();
  r.check(cwf->workflow().finished() && done_at >= 0.0, "workflow did not finish");
  r.check(reports.size() == 4, "expected 4 step reports");
  r.check(cwf->files_fetched() == cwf->scaled_file_count(),
          "files fetched " + std::to_string(cwf->files_fetched()) + " != " +
              std::to_string(cwf->scaled_file_count()));
  double err = 0.0;
  for (std::size_t i = 0; i < reports.size() && i < 4; ++i) {
    const auto& m = reports[i];
    const PaperRow& p = kTable1[i];
    const std::string step = "step " + std::to_string(i + 1);
    r.check(m.pods == p.pods, step + " pods " + std::to_string(m.pods));
    r.check(static_cast<int>(m.cpus) == p.cpus, step + " cpus");
    r.check(m.gpus == p.gpus, step + " gpus");
    r.check(cu::format_bytes(m.data_bytes) == cu::format_bytes(p.data),
            step + " data " + cu::format_bytes(m.data_bytes));
    r.check(cu::format_bytes(m.peak_memory_bytes) == cu::format_bytes(p.memory),
            step + " memory " + cu::format_bytes(m.peak_memory_bytes));
    if (p.minutes > 0) {
      err = std::max(err, std::abs(m.duration() / (p.minutes * 60.0) - 1.0) * 100.0);
    }
  }

  r.exact.emplace_back("sim.events", static_cast<double>(bed->sim.events_processed()));
  r.exact.emplace_back("sim.sim_s", done_at);
  r.exact.emplace_back("net.bytes_delivered", bed->net.total_bytes_delivered());
  add_pod_metrics(r, bed->kube->list_pods(params.ns));
  r.exact.emplace_back("thredds.requests",
                       static_cast<double>(bed->thredds->requests_served()));
  r.exact.emplace_back("thredds.bytes_served", bed->thredds->bytes_served());
  r.exact.emplace_back("redis.redeliveries", static_cast<double>(bed->redis->redeliveries()));
  r.exact.emplace_back("redis.requeues", static_cast<double>(bed->redis->requeues()));
  r.exact.emplace_back("ceph.bytes_written", bed->ceph->total_bytes_written());
  r.exact.emplace_back("ceph.bytes_read", bed->ceph->total_bytes_read());
  for (std::size_t i = 0; i < 4; ++i) {
    r.exact.emplace_back("wf.step" + std::to_string(i + 1) + "_sim_s",
                         i < reports.size() ? reports[i].duration() : 0.0);
  }
  r.exact.emplace_back("wf.table1_err_pct", err);
  r.exact.emplace_back("core.files_fetched", static_cast<double>(cwf->files_fetched()));
  r.exact.emplace_back("core.download_retries", cwf->download_retries());
  r.exact.emplace_back("mon.samples", static_cast<double>(samples));

  if (tracer.on()) {
    // Attribute each slice to the step active at its sim midpoint.
    double step_host[4] = {0, 0, 0, 0};
    for (const auto& s : loop.slices) {
      const double mid = 0.5 * (s.sim_t0 + s.sim_t1);
      for (std::size_t i = 0; i < reports.size() && i < 4; ++i) {
        if (mid >= reports[i].start_time && mid < reports[i].end_time) {
          step_host[i] += s.host_s;
          break;
        }
      }
    }
    for (int i = 0; i < 4; ++i) {
      r.traced.emplace_back("wf.step" + std::to_string(i + 1) + "_host_s", step_host[i]);
    }
    r.traced.emplace_back("mon.sample_host_s", tracer.total_seconds("mon.sample_now"));
    r.traced.emplace_back("net.peak_active_flows", static_cast<double>(loop.peak_active_flows));
  }
  return r;
}

// ---------------------------------------------------------------------------
// federation: 4 sites x 512 FIONA8, 512 jobs x 200 completions through the
// federation controller, images pulled over the WAN from a site-0 registry.

struct FedScale {
  int sites, nodes_per_site, jobs, completions, parallelism;
};

Result run_federation(std::uint64_t seed, bool smoke, Tracer& tracer) {
  const FedScale scale = smoke ? FedScale{4, 64, 32, 20, 4} : FedScale{4, 512, 512, 200, 8};
  Result r;
  const auto t_setup = Clock::now();
  auto sim = std::make_unique<cs::Simulation>();
  auto net = std::make_unique<Network>(*sim);
  cc::Inventory inventory(*net);
  std::vector<NodeId> cores;
  {
    Span s(tracer, "setup.topology");
    for (int site = 0; site < scale.sites; ++site) {
      const std::string name = "site-" + std::to_string(site);
      cores.push_back(net->add_node(name + "-core", site));
      for (int i = 0; i < scale.nodes_per_site; ++i) {
        const std::string leaf_name = name + "-n" + std::to_string(i);
        const NodeId leaf = net->add_node(leaf_name, site);
        net->add_link(leaf, cores.back(), cu::gbit_per_s(10.0), 0.5e-3);
        inventory.add(cc::fiona8(leaf_name, name), leaf);
      }
    }
    for (int a = 0; a < scale.sites; ++a) {
      for (int b = a + 1; b < scale.sites; ++b) {
        net->add_link(cores[static_cast<std::size_t>(a)], cores[static_cast<std::size_t>(b)],
                      cu::gbit_per_s(100.0), 30e-3);
      }
    }
  }
  ck::KubeCluster::Options opt;
  opt.registry_node = cores[0];
  std::vector<std::unique_ptr<ck::KubeCluster>> clusters;
  ck::FederationController fed;
  {
    Span s(tracer, "kube.register_node");
    for (int site = 0; site < scale.sites; ++site) {
      const std::string name = "site-" + std::to_string(site);
      clusters.push_back(std::make_unique<ck::KubeCluster>(*sim, *net, inventory, nullptr, opt));
      for (cc::MachineId m : inventory.at_site(name)) clusters.back()->register_node(m);
      fed.add_site(name, *clusters.back(), {"ds-" + std::to_string(site)});
    }
  }
  std::vector<ck::JobPtr> jobs;
  {
    Span s(tracer, "kube.submit_job");
    cu::Rng root(0xFEDC0DE5ULL + static_cast<std::uint64_t>(scale.jobs) + seed);
    for (int j = 0; j < scale.jobs; ++j) {
      ck::JobSpec job;
      job.ns = "default";
      job.name = "fedjob-" + std::to_string(j);
      ck::ContainerSpec c;
      c.requests = {2.0, cu::gb(2.0), 1};
      const double run_s = root.uniform(0.5, 2.0);
      c.program = [run_s](ck::PodContext& ctx) -> cs::Task {
        co_await ctx.sim().sleep(run_s);
      };
      job.pod_template.containers.push_back(std::move(c));
      job.completions = scale.completions;
      job.parallelism = scale.parallelism;
      job.backoff_limit = 1 << 20;
      auto placed = fed.submit_job(std::move(job), "ds-" + std::to_string(j % scale.sites));
      r.check(placed.ok(), "submit failed: " + placed.error);
      if (placed.ok()) jobs.push_back(placed.value);
    }
  }
  r.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  const SliceStats loop = run_loop(*sim, *net, tracer, 1.0);
  r.slice_host_s = loop.host_seconds();
  r.wall_s = seconds_since(t_run);
  r.peak_rss_mb = peak_rss_mb();

  std::vector<ck::PodPtr> pods;
  for (const auto& c : clusters) {
    auto site_pods = c->list_pods("default");
    pods.insert(pods.end(), site_pods.begin(), site_pods.end());
  }
  std::uint64_t succeeded = 0;
  double sim_end = 0.0;
  for (const ck::PodPtr& p : pods) {
    if (p->phase == ck::PodPhase::Succeeded) ++succeeded;
    sim_end = std::max(sim_end, p->finished_at);
  }
  r.attempted = static_cast<std::uint64_t>(scale.jobs) *
                static_cast<std::uint64_t>(scale.completions);
  r.check(succeeded == r.attempted && pods.size() == r.attempted,
          std::to_string(succeeded) + " of " + std::to_string(pods.size()) +
              " pods succeeded, expected " + std::to_string(r.attempted));
  for (const ck::JobPtr& j : jobs) {
    r.check(j->complete && !j->failed_state, "job " + j->spec.name + " incomplete");
  }
  const std::uint64_t violations = count_invariant_failures([&] {
    for (const auto& c : clusters) c->check_invariants();
  });
  r.check(violations == 0, std::to_string(violations) + " kube invariant violations");

  r.exact.emplace_back("sim.events", static_cast<double>(sim->events_processed()));
  r.exact.emplace_back("sim.sim_s", sim_end);
  r.exact.emplace_back("net.bytes_delivered", net->total_bytes_delivered());
  add_pod_metrics(r, pods);
  if (tracer.on()) {
    r.traced.emplace_back("kube.register_host_s", tracer.total_seconds("kube.register_node"));
    r.traced.emplace_back("kube.submit_host_s", tracer.total_seconds("kube.submit_job"));
    r.traced.emplace_back("net.peak_active_flows", static_cast<double>(loop.peak_active_flows));
  }
  return r;
}

// ---------------------------------------------------------------------------
// flowchurn: 128 leaves behind one core switch, each with a timer ping-pong
// task and 8 streams of short uncapped transfers to random peers.

struct ChurnTally {
  std::uint64_t issued = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t bytes_issued = 0;
  double last_done = 0.0;
};

cs::Task ticker(cs::Simulation* sim, cu::Rng rng, int ticks) {
  for (int i = 0; i < ticks; ++i) co_await sim->sleep(rng.uniform(0.5e-3, 1.5e-3));
}

cs::Task churn_stream(cs::Simulation* sim, Network* net, NodeId self, int nodes, cu::Rng rng,
                      int transfers, ChurnTally* tally) {
  for (int i = 0; i < transfers; ++i) {
    auto dst = static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
    if (dst == self) dst = (dst + 1) % nodes;
    const auto bytes = static_cast<cu::Bytes>(rng.uniform(2e5, 2e6));
    chase::net::TransferPtr t = net->transfer(self, dst, bytes);
    ++tally->issued;
    tally->bytes_issued += static_cast<std::uint64_t>(bytes);
    co_await t->done->wait(*sim);
    if (!t->failed) ++tally->succeeded;
    tally->last_done = std::max(tally->last_done, sim->now());
    co_await sim->sleep(rng.exponential(1e-3));
  }
}

Result run_flowchurn(std::uint64_t seed, bool smoke, Tracer& tracer) {
  const int nodes = 128, streams = 8, ticks = 100;
  const int transfers = smoke ? 4 : 40;
  Result r;
  ChurnTally tally;
  const auto t_setup = Clock::now();
  auto sim = std::make_unique<cs::Simulation>();
  auto net = std::make_unique<Network>(*sim);
  std::vector<NodeId> leaves;
  {
    Span s(tracer, "setup.topology");
    const NodeId core = net->add_node("core");
    for (int i = 0; i < nodes; ++i) {
      const NodeId n = net->add_node("n" + std::to_string(i));
      net->add_link(n, core, cu::gbit_per_s(10.0), 0.5e-3);
      leaves.push_back(n);
    }
  }
  {
    Span s(tracer, "setup.submit");
    cu::Rng root(0xC0DEC0DEULL + static_cast<std::uint64_t>(nodes) + seed);
    for (int i = 0; i < nodes; ++i) {
      sim->spawn(ticker(sim.get(), root.fork(), ticks));
      for (int k = 0; k < streams; ++k) {
        sim->spawn(churn_stream(sim.get(), net.get(), leaves[static_cast<std::size_t>(i)],
                                nodes, root.fork(), transfers, &tally));
      }
    }
  }
  r.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  const SliceStats loop = run_loop(*sim, *net, tracer, 1e-3);
  r.slice_host_s = loop.host_seconds();
  r.wall_s = seconds_since(t_run);
  r.peak_rss_mb = peak_rss_mb();

  const double delivered = net->total_bytes_delivered();
  r.attempted = static_cast<std::uint64_t>(nodes) * streams * transfers;
  r.check(tally.issued == r.attempted, "issued " + std::to_string(tally.issued) +
                                           " transfers, expected " +
                                           std::to_string(r.attempted));
  r.check(tally.succeeded == tally.issued, std::to_string(tally.issued - tally.succeeded) +
                                               " transfers failed");
  // The network accrues delivered bytes as a double; whole bytes must match.
  r.check(std::llround(delivered) == static_cast<long long>(tally.bytes_issued),
          "delivered " + std::to_string(delivered) + " bytes of " +
              std::to_string(tally.bytes_issued));
  const std::uint64_t violations = count_invariant_failures([&] { net->check_invariants(); });
  r.check(violations == 0, std::to_string(violations) + " net invariant violations");

  r.exact.emplace_back("sim.events", static_cast<double>(sim->events_processed()));
  r.exact.emplace_back("sim.sim_s", tally.last_done);
  r.exact.emplace_back("net.bytes_delivered", delivered);
  r.exact.emplace_back("net.flows", static_cast<double>(tally.issued));
  if (tracer.on()) {
    r.traced.emplace_back("net.peak_active_flows", static_cast<double>(loop.peak_active_flows));
  }
  return r;
}

// ---------------------------------------------------------------------------
// disttrain: real data-parallel FFN training, ring all-reduce, 4 workers on
// 2 sites, the bench_abl_disttrain base config.

ml::DistTrainConfig disttrain_config(std::uint64_t seed, bool smoke) {
  ml::DistTrainConfig config;
  config.sync = ml::DistTrainConfig::Sync::RingAllReduce;
  config.workers = 4;
  config.steps = smoke ? 4 : 480;
  config.model.channels = 4;
  config.model.modules = 1;
  config.model.fov = 7;
  config.data.nx = 48;
  config.data.ny = 32;
  config.data.nt = 32;
  config.data.events = 4;
  config.optimizer.learning_rate = 0.05f;
  config.seed = 11 + seed;
  config.flops_per_example = 1.4e11;
  config.sync_bytes = cu::mb(3);
  return config;
}

Result run_disttrain(std::uint64_t seed, bool smoke, bool check_reference, Tracer& tracer) {
  const ml::DistTrainConfig config = disttrain_config(seed, smoke);
  Result r;
  const auto t_setup = Clock::now();
  std::unique_ptr<co::Nautilus> bed;
  {
    Span s(tracer, "setup.testbed");
    co::NautilusOptions options;
    options.sites = {"Site0", "Site1"};
    options.fiona8_per_site = 2;
    options.storage_per_site = 1;
    options.wan_gbps = {40.0, 40.0};
    bed = std::make_unique<co::Nautilus>(options);
  }
  std::unique_ptr<ml::DistTrainer> trainer;
  {
    Span s(tracer, "setup.trainer");
    trainer = std::make_unique<ml::DistTrainer>(*bed->kube, config);
  }
  cs::EventPtr done;
  {
    Span s(tracer, "setup.submit");
    done = trainer->start();
  }
  r.setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  {
    Span s(tracer, "ml.disttrainer_run");
    r.slice_host_s = run_loop(bed->sim, bed->net, tracer, 0.1).host_seconds();
  }
  r.wall_s = seconds_since(t_run);
  r.peak_rss_mb = peak_rss_mb();

  const ml::DistTrainReport& report = trainer->report();
  r.attempted = static_cast<std::uint64_t>(config.steps);
  r.check(done->fired() && trainer->finished(), "trainer did not finish");
  r.check(report.applied_updates == config.steps,
          "applied " + std::to_string(report.applied_updates) + " updates");
  if (check_reference) {
    Span s(tracer, "ml.reference_large_batch");
    const std::uint64_t reference = ml::reference_large_batch(config).hash;
    if (tracer.on()) r.traced.emplace_back("ml.reference_host_s", s.close());
    r.check(report.hash == reference, "report hash differs from reference_large_batch");
  }
  const auto& shards = report.shard_contributions;
  const auto workers = static_cast<std::size_t>(config.workers);
  r.check(shards.size() >= workers, "missing shard contributions");
  for (std::size_t k = 0; k < shards.size() && k < workers; ++k) {
    r.check(shards[k] == config.steps,
            "shard " + std::to_string(k) + " contributed " + std::to_string(shards[k]));
  }

  r.exact.emplace_back("sim.events", static_cast<double>(bed->sim.events_processed()));
  r.exact.emplace_back("sim.sim_s", report.sim_seconds);
  r.exact.emplace_back("net.bytes_delivered", bed->net.total_bytes_delivered());
  add_pod_metrics(r, bed->kube->list_pods(config.ns));
  r.exact.emplace_back("ml.steps", report.applied_updates);
  r.exact.emplace_back("ml.comm_bytes", static_cast<double>(report.comm_bytes));
  r.exact.emplace_back("ml.final_loss", report.final_loss);
  // Not reported as metrics: they fold the trajectory into run.py's
  // cross-repetition equality check.
  r.exact.emplace_back("ml.hash_hi32", static_cast<double>(report.hash >> 32));
  r.exact.emplace_back("ml.hash_lo32", static_cast<double>(report.hash & 0xffffffffULL));
  return r;
}

void print_pairs(const char* key, const std::vector<std::pair<std::string, double>>& kv) {
  std::printf(", \"%s\": {", key);
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", kv[i].first.c_str(), kv[i].second);
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload connect|federation|flowchurn|disttrain "
               "[--seed N] [--smoke] [--trace-out FILE] [--check-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  bool smoke = false, trace = false, check_reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--check-reference") {
      check_reference = true;
    } else {
      return usage();
    }
  }

  // Hot-path measurement: invariant sweeps are off during the run and
  // applied once, explicitly, by each workload's correctness check.
  cu::set_audit_level(0);

  Tracer tracer(trace);
  Result r;
  {
    Span total(tracer, "workload." + workload);
    if (workload == "connect") {
      r = run_connect(seed, tracer);
    } else if (workload == "federation") {
      r = run_federation(seed, smoke, tracer);
    } else if (workload == "flowchurn") {
      r = run_flowchurn(seed, smoke, tracer);
    } else if (workload == "disttrain") {
      r = run_disttrain(seed, smoke, check_reference, tracer);
    } else {
      return usage();
    }
  }
  // Every operation a check covers succeeded, or the run counts as failed.
  r.failed = r.correct ? 0 : r.attempted;
  if (!trace_out.empty() && !tracer.write_chrome(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 2;
  }

  std::printf("{\"workload\": \"%s\", \"traced\": %s, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu",
              workload.c_str(), trace ? "true" : "false", r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf(", \"setup_s\": %.9g, \"wall_s\": %.9g, \"peak_rss_mb\": %.6g", r.setup_s,
              r.wall_s, r.peak_rss_mb);
  std::printf(", \"slice_host_s\": [");
  for (std::size_t i = 0; i < r.slice_host_s.size(); ++i) {
    std::printf("%s%.9g", i ? ", " : "", r.slice_host_s[i]);
  }
  std::printf("]");
  print_pairs("exact", r.exact);
  print_pairs("trace_metrics", r.traced);
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", r.errors[i].c_str());
  }
  std::printf("]}\n");
  return 0;
}
