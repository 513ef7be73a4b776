// NetPerturber unit contracts: scripted crash/restart and partition windows,
// symmetric vs asymmetric link semantics, probabilistic arms, and the
// no-RNG-when-disabled guarantee the ctrl determinism suite relies on.
#include "inject/net_perturber.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace aer {
namespace {

TEST(NetPerturberTest, ScriptedCrashAndRestartToggleNodeLiveness) {
  NetFaultScript script;
  script.crashes.push_back({100, 1, 200});
  NetPerturber perturber(NetPerturbConfig{}, script);

  EXPECT_TRUE(perturber.NodeUp(1));
  EXPECT_TRUE(perturber.AdvanceTo(50).empty());
  const auto down = perturber.AdvanceTo(100);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].kind, NetTransition::Kind::kCrash);
  EXPECT_EQ(down[0].node, 1);
  EXPECT_FALSE(perturber.NodeUp(1));

  // Messages to or from a down node are partition-dropped.
  EXPECT_FALSE(perturber.Route(150, 0, 1, 1).deliver);
  EXPECT_FALSE(perturber.Route(150, 1, 0, 1).deliver);
  EXPECT_EQ(perturber.stats().partition_drops, 2);

  const auto up = perturber.AdvanceTo(250);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].kind, NetTransition::Kind::kRestart);
  EXPECT_TRUE(perturber.NodeUp(1));
  EXPECT_TRUE(perturber.Route(250, 0, 1, 1).deliver);
}

TEST(NetPerturberTest, SymmetricPartitionBlocksBothDirections) {
  NetFaultScript script;
  LinkPartition partition;
  partition.from = 10;
  partition.until = 20;
  partition.side_a = {0};
  partition.side_b = {1, 2};
  script.partitions.push_back(partition);
  NetPerturber perturber(NetPerturbConfig{}, script);

  perturber.AdvanceTo(10);
  EXPECT_FALSE(perturber.LinkOpen(0, 1));
  EXPECT_FALSE(perturber.LinkOpen(1, 0));
  EXPECT_FALSE(perturber.LinkOpen(0, 2));
  // Links within one side stay open, as does a node's self-link.
  EXPECT_TRUE(perturber.LinkOpen(1, 2));
  EXPECT_TRUE(perturber.LinkOpen(0, 0));

  perturber.AdvanceTo(20);  // heal
  EXPECT_TRUE(perturber.LinkOpen(0, 1));
  EXPECT_EQ(perturber.stats().partitions_started, 1);
  EXPECT_EQ(perturber.stats().partitions_healed, 1);
}

TEST(NetPerturberTest, AsymmetricPartitionBlocksOnlyAToB) {
  NetFaultScript script;
  LinkPartition partition;
  partition.from = 0;
  partition.until = 100;
  partition.side_a = {0};
  partition.side_b = {1};
  partition.asymmetric = true;
  script.partitions.push_back(partition);
  NetPerturber perturber(NetPerturbConfig{}, script);

  perturber.AdvanceTo(0);
  EXPECT_FALSE(perturber.LinkOpen(0, 1));  // a -> b lost
  EXPECT_TRUE(perturber.LinkOpen(1, 0));   // b -> a still flows
}

TEST(NetPerturberTest, CleanRouteAddsExactlyBaseLatency) {
  NetPerturber perturber(NetPerturbConfig{}, NetFaultScript{});
  const NetPerturber::Routing routing = perturber.Route(40, 0, 1, 3);
  EXPECT_TRUE(routing.deliver);
  EXPECT_EQ(routing.at, 43);
  EXPECT_FALSE(routing.duplicated);
}

TEST(NetPerturberTest, ProbabilisticArmsFireAndAreCounted) {
  NetPerturbConfig config;
  config.drop_message = 0.3;
  config.delay_message = 0.3;
  config.duplicate_message = 0.3;
  config.max_delay = 5;
  NetPerturber perturber(config, NetFaultScript{});
  obs::MetricsRegistry metrics;
  perturber.SetMetrics(&metrics);

  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    const NetPerturber::Routing routing = perturber.Route(i, 0, 1, 1);
    if (!routing.deliver) continue;
    ++delivered;
    EXPECT_GE(routing.at, i + 1);
    EXPECT_LE(routing.at, i + 1 + config.max_delay);
    if (routing.duplicated) {
      EXPECT_GT(routing.duplicate_at, routing.at);
    }
  }
  const NetPerturber::Stats& stats = perturber.stats();
  EXPECT_GT(stats.random_drops, 0);
  EXPECT_GT(stats.delays, 0);
  EXPECT_GT(stats.duplicates, 0);
  EXPECT_EQ(delivered, 1000 - stats.random_drops);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_net_msgs_dropped_total").value(),
      stats.random_drops);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_net_msgs_delayed_total").value(),
      stats.delays);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_net_msgs_duplicated_total").value(),
      stats.duplicates);
}

TEST(NetPerturberTest, DisabledArmsConsumeNoRngAcrossTrafficVolumes) {
  // Two perturbers, same seed, very different traffic volume: with every
  // probability at 0 their (later) probabilistic draws would still agree —
  // proven here by enabling an arm afterwards via a third instance is
  // impossible, so instead assert routing is pure passthrough for both.
  NetPerturber a(NetPerturbConfig{}, NetFaultScript{});
  NetPerturber b(NetPerturbConfig{}, NetFaultScript{});
  for (int i = 0; i < 5; ++i) {
    const NetPerturber::Routing routing = a.Route(i, 0, 1, 1);
    EXPECT_TRUE(routing.deliver);
    EXPECT_EQ(routing.at, i + 1);
    EXPECT_FALSE(routing.duplicated);
  }
  for (int i = 0; i < 500; ++i) {
    const NetPerturber::Routing routing = b.Route(i, 0, 1, 1);
    EXPECT_TRUE(routing.deliver);
    EXPECT_EQ(routing.at, i + 1);
    EXPECT_FALSE(routing.duplicated);
  }
  EXPECT_EQ(a.stats().random_drops + a.stats().delays + a.stats().duplicates,
            0);
  EXPECT_EQ(b.stats().random_drops + b.stats().delays + b.stats().duplicates,
            0);
}

TEST(NetPerturberTest, TransitionsCountIntoCoordinatorMetrics) {
  NetFaultScript script;
  script.crashes.push_back({10, 0, 20});
  LinkPartition partition;
  partition.from = 30;
  partition.until = 40;
  partition.side_a = {0};
  partition.side_b = {1};
  script.partitions.push_back(partition);
  NetPerturber perturber(NetPerturbConfig{}, script);
  obs::MetricsRegistry metrics;
  perturber.SetMetrics(&metrics);

  perturber.AdvanceTo(50);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_coordinator_crashes_total").value(), 1);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_coordinator_restarts_total").value(), 1);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_partitions_started_total").value(), 1);
  EXPECT_EQ(
      metrics.GetCounter("aer_inject_partitions_healed_total").value(), 1);
}

}  // namespace
}  // namespace aer
