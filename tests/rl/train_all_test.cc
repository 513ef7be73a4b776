// The TrainAll(pool) equivalence contract (docs/PARALLELISM.md): for every
// seed and every thread count, training the types over a pool must produce
// byte-identical serialized artifacts — Q-tables and deployable policy — to
// the serial TrainAll() of the same trainer, greedy or selection tree. Not
// "statistically equivalent", not "same greedy policy": the same bytes.
// Anything weaker would let figure-level drift hide behind scheduling.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "rl/qlearning.h"
#include "rl/selection_tree.h"
#include "three_type_fixture.h"

namespace aer {
namespace {

using aer::testing::Serialize;
using aer::testing::ThreeTypeConfig;
using aer::testing::ThreeTypeFixture;

struct SerialReference {
  std::string policy_bytes;
  std::vector<std::string> table_bytes;
  std::vector<TypeTrainingResult> per_type;
};

// The serial ground truth: TrainAll() for the policy + per-type results,
// TrainType(type, &table) for the table bytes.
template <typename Trainer>
SerialReference SerialRun(const Trainer& trainer, std::size_t num_types) {
  SerialReference ref;
  const QLearningTrainer::TrainingOutput output = trainer.TrainAll();
  ref.policy_bytes = Serialize(output.policy);
  ref.per_type = output.per_type;
  for (std::size_t t = 0; t < num_types; ++t) {
    QTable table;
    trainer.TrainType(static_cast<ErrorTypeId>(t), &table);
    ref.table_bytes.push_back(Serialize(table));
  }
  return ref;
}

template <typename Trainer>
void ExpectPooledMatchesSerial(const Trainer& trainer, std::size_t num_types,
                               const SerialReference& ref, int threads,
                               std::uint64_t seed) {
  ThreadPool pool(threads);
  std::vector<QTable> tables;
  const QLearningTrainer::TrainingOutput output =
      trainer.TrainAll(&pool, &tables);

  EXPECT_EQ(Serialize(output.policy), ref.policy_bytes)
      << "seed " << seed << ", " << threads
      << " threads: serialized policy diverged from the serial TrainAll()";

  ASSERT_EQ(tables.size(), num_types);
  for (std::size_t t = 0; t < num_types; ++t) {
    EXPECT_EQ(Serialize(tables[t]), ref.table_bytes[t])
        << "seed " << seed << ", " << threads << " threads, type " << t
        << ": serialized Q-table diverged from the serial TrainType()";
  }

  ASSERT_EQ(output.per_type.size(), ref.per_type.size());
  for (std::size_t i = 0; i < ref.per_type.size(); ++i) {
    EXPECT_EQ(output.per_type[i].type, ref.per_type[i].type);
    EXPECT_EQ(output.per_type[i].sweeps, ref.per_type[i].sweeps);
    EXPECT_EQ(output.per_type[i].episodes, ref.per_type[i].episodes);
    EXPECT_EQ(output.per_type[i].converged, ref.per_type[i].converged);
    EXPECT_EQ(output.per_type[i].sequence, ref.per_type[i].sequence);
  }
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
constexpr int kThreadCounts[] = {1, 2, 8};

TEST(TrainAllTest, PlainTrainerByteIdenticalAcrossSeedsAndThreads) {
  const ThreeTypeFixture fx;
  for (const std::uint64_t seed : kSeeds) {
    const QLearningTrainer trainer(fx.platform, fx.processes,
                                   ThreeTypeConfig(seed));
    const SerialReference ref = SerialRun(trainer, fx.num_types());
    for (const int threads : kThreadCounts) {
      ExpectPooledMatchesSerial(trainer, fx.num_types(), ref, threads, seed);
    }
  }
}

TEST(TrainAllTest, TreeTrainerByteIdenticalAcrossSeedsAndThreads) {
  const ThreeTypeFixture fx;
  for (const std::uint64_t seed : kSeeds) {
    const QLearningTrainer base(fx.platform, fx.processes,
                                ThreeTypeConfig(seed));
    const SelectionTreeTrainer tree(base, SelectionTreeConfig{});
    const SerialReference ref = SerialRun(tree, fx.num_types());
    for (const int threads : kThreadCounts) {
      ExpectPooledMatchesSerial(tree, fx.num_types(), ref, threads, seed);
    }
  }
}

TEST(TrainAllTest, SharedPoolAcrossConcurrentTrainAlls) {
  // Two TrainAll() calls sharing one pool (the bench layout), each nested
  // inside an index of an outer loop on that same pool, must not interfere
  // with each other's results.
  const ThreeTypeFixture fx;
  const QLearningTrainer trainer(fx.platform, fx.processes,
                                 ThreeTypeConfig(11));
  const SerialReference ref = SerialRun(trainer, fx.num_types());
  ThreadPool pool(4);
  std::vector<std::string> policies(2);
  pool.ParallelFor(policies.size(), [&](std::size_t i) {
    policies[i] = Serialize(trainer.TrainAll(&pool).policy);
  });
  EXPECT_EQ(policies[0], ref.policy_bytes);
  EXPECT_EQ(policies[1], ref.policy_bytes);
}

}  // namespace
}  // namespace aer
