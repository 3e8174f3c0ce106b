#include <gtest/gtest.h>

#include "mon/metrics.hpp"
#include "sim/simulation.hpp"

namespace cm = chase::mon;
namespace cs = chase::sim;

TEST(TimeSeries, Stats) {
  cm::TimeSeries ts;
  ts.append(0, 1);
  ts.append(10, 5);
  ts.append(20, 3);
  EXPECT_DOUBLE_EQ(ts.max_over_time(), 5);
  EXPECT_DOUBLE_EQ(ts.min_over_time(), 1);
  EXPECT_DOUBLE_EQ(ts.avg_over_time(), 3);
  EXPECT_DOUBLE_EQ(ts.last(), 3);
  EXPECT_DOUBLE_EQ(ts.rate(), (3.0 - 1.0) / 20.0);
}

TEST(TimeSeries, ValueAtStepInterpolation) {
  cm::TimeSeries ts;
  ts.append(10, 1);
  ts.append(20, 2);
  EXPECT_DOUBLE_EQ(ts.value_at(5), 0);
  EXPECT_DOUBLE_EQ(ts.value_at(10), 1);
  EXPECT_DOUBLE_EQ(ts.value_at(15), 1);
  EXPECT_DOUBLE_EQ(ts.value_at(25), 2);
}

TEST(TimeSeries, EmptySeriesSafe) {
  cm::TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.max_over_time(), 0);
  EXPECT_DOUBLE_EQ(ts.rate(), 0);
  EXPECT_DOUBLE_EQ(ts.value_at(100), 0);
}

TEST(Registry, ProbeSampling) {
  cs::Simulation sim;
  cm::Registry reg;
  double cpu = 0.0;
  reg.register_probe("cpu", {{"pod", "w1"}}, [&] { return cpu; });
  auto stop = cs::make_event();
  reg.start_sampler(sim, 10.0, stop);
  sim.schedule(15.0, [&] { cpu = 4.0; });
  sim.schedule(35.0, [&] { stop->trigger(sim); });
  sim.run(60.0);
  const auto* ts = reg.find("cpu", {{"pod", "w1"}});
  ASSERT_NE(ts, nullptr);
  // Samples at t=0,10,20,30,40 (final sample after stop fired).
  ASSERT_GE(ts->samples().size(), 4u);
  EXPECT_DOUBLE_EQ(ts->value_at(10), 0.0);
  EXPECT_DOUBLE_EQ(ts->value_at(20), 4.0);
}

TEST(Registry, SamplerStopsAfterEvent) {
  cs::Simulation sim;
  cm::Registry reg;
  reg.register_probe("g", {}, [] { return 1.0; });
  auto stop = cs::make_event();
  reg.start_sampler(sim, 5.0, stop);
  sim.schedule(12.0, [&] { stop->trigger(sim); });
  sim.run(1000.0);
  // The queue must drain: no endless sampler.
  EXPECT_TRUE(sim.empty());
}

TEST(Registry, SelectByLabelSubset) {
  cm::Registry reg;
  reg.record("mem", {{"pod", "a"}, {"step", "1"}}, 0, 10);
  reg.record("mem", {{"pod", "b"}, {"step", "1"}}, 0, 20);
  reg.record("mem", {{"pod", "c"}, {"step", "2"}}, 0, 40);
  EXPECT_EQ(reg.select("mem").size(), 3u);
  EXPECT_EQ(reg.select("mem", {{"step", "1"}}).size(), 2u);
  EXPECT_EQ(reg.select("mem", {{"step", "2"}}).size(), 1u);
  EXPECT_EQ(reg.select("other").size(), 0u);
}

TEST(Registry, SumAtAndMaxSum) {
  cm::Registry reg;
  reg.record("mem", {{"pod", "a"}}, 0, 10);
  reg.record("mem", {{"pod", "a"}}, 10, 30);
  reg.record("mem", {{"pod", "b"}}, 0, 5);
  reg.record("mem", {{"pod", "b"}}, 10, 1);
  EXPECT_DOUBLE_EQ(reg.sum_at("mem", {}, 0), 15);
  EXPECT_DOUBLE_EQ(reg.sum_at("mem", {}, 10), 31);
  EXPECT_DOUBLE_EQ(reg.max_sum("mem", {}), 31);
}

TEST(Registry, UnregisterProbeStopsSampling) {
  cs::Simulation sim;
  cm::Registry reg;
  reg.register_probe("x", {{"i", "1"}}, [] { return 1.0; });
  reg.sample_now(0);
  reg.unregister_probe("x", {{"i", "1"}});
  reg.sample_now(1);
  EXPECT_EQ(reg.find("x", {{"i", "1"}})->samples().size(), 1u);
}

TEST(Registry, ChartContainsSeriesName) {
  cm::Registry reg;
  for (int i = 0; i < 10; ++i) reg.record("gpu", {{"pod", "inf-0"}}, i, i % 3);
  std::string chart = reg.chart("GPU usage", "gpus", "gpu");
  EXPECT_NE(chart.find("inf-0"), std::string::npos);
  EXPECT_NE(chart.find("GPU usage"), std::string::npos);
}

TEST(Registry, KeyToString) {
  EXPECT_EQ(cm::key_to_string({"cpu", {}}), "cpu");
  EXPECT_EQ(cm::key_to_string({"cpu", {{"pod", "a"}}}), "cpu{pod=a}");
}

// Probes bind to their series on the first sample; these pin the semantics
// that binding must keep from the keyed lookup it replaced.

TEST(Registry, ProbeSeriesAbsentUntilFirstSample) {
  cm::Registry reg;
  reg.register_probe("late", {{"pod", "p"}}, [] { return 2.0; });
  EXPECT_EQ(reg.find("late", {{"pod", "p"}}), nullptr);
  EXPECT_TRUE(reg.select("late").empty());
  reg.sample_now(3.0);
  const auto* ts = reg.find("late", {{"pod", "p"}});
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->samples().size(), 1u);
  EXPECT_DOUBLE_EQ(ts->samples()[0].first, 3.0);
  EXPECT_DOUBLE_EQ(ts->samples()[0].second, 2.0);
}

TEST(Registry, ReRegisteredProbeAppendsToTheSameSeries) {
  cm::Registry reg;
  const cm::Labels labels{{"pod", "w"}};
  reg.register_probe("cpu", labels, [] { return 1.0; });
  reg.sample_now(0);
  const auto* first = reg.find("cpu", labels);
  reg.unregister_probe("cpu", labels);
  reg.sample_now(1);
  reg.register_probe("cpu", labels, [] { return 5.0; });
  reg.sample_now(2);
  reg.sample_now(3);
  const auto* ts = reg.find("cpu", labels);
  EXPECT_EQ(ts, first);
  ASSERT_EQ(ts->samples().size(), 3u);
  EXPECT_EQ(ts->samples()[0], (std::pair<double, double>{0, 1}));
  EXPECT_EQ(ts->samples()[1], (std::pair<double, double>{2, 5}));
  EXPECT_EQ(ts->samples()[2], (std::pair<double, double>{3, 5}));
  EXPECT_EQ(reg.select("cpu").size(), 1u);
}

TEST(Registry, RecordAndProbeShareOneSeries) {
  cm::Registry reg;
  const cm::Labels labels{{"node", "n0"}};
  reg.record("load", labels, 0, 7);  // series exists before the probe binds
  reg.register_probe("load", labels, [] { return 9.0; });
  reg.sample_now(1);
  reg.record("load", labels, 2, 8);  // and is appended to after it bound
  reg.sample_now(3);
  const auto* ts = reg.find("load", labels);
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->samples(), (std::vector<std::pair<double, double>>{
                               {0, 7}, {1, 9}, {2, 8}, {3, 9}}));
  EXPECT_EQ(reg.select("load").size(), 1u);
}

TEST(Registry, ProbeRegisteredMidRunGetsItsOwnFirstSample) {
  cs::Simulation sim;
  cm::Registry reg;
  reg.register_probe("early", {}, [] { return 1.0; });
  auto stop = cs::make_event();
  reg.start_sampler(sim, 10.0, stop);
  sim.schedule(15.0, [&] { reg.register_probe("late", {}, [] { return 3.0; }); });
  sim.schedule(35.0, [&] { stop->trigger(sim); });
  sim.run(100.0);
  const auto* early = reg.find("early");
  const auto* late = reg.find("late");
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);
  EXPECT_NE(early, late);
  // Sampler ticks at 0, 10, 20, 30, 40; "late" exists from the tick at 20.
  EXPECT_EQ(early->samples().size(), 5u);
  ASSERT_EQ(late->samples().size(), 3u);
  EXPECT_DOUBLE_EQ(late->samples().front().first, 20.0);
  EXPECT_DOUBLE_EQ(late->value_at(15.0), 0.0);
  EXPECT_DOUBLE_EQ(late->value_at(20.0), 3.0);
}
