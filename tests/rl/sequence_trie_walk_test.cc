// Differential test of EvaluateSequences' class-compiled trie walk against
// the plainest pricer: one replay per process, Reset() before every
// sequence, each sequence stepped from the root. Every field must match bit
// for bit, on seeded random batches that exercise what the walk shares
// between sequences — prefixes, duplicates, the empty sequence, actions
// after manual repair, sequences longer than the action cap — and between
// processes — interleaved classes of equal attempt kinds with their own
// costs and delays, processes longer than a packed class key — under both
// capability models. A SequencePricer kept across calls must price each
// call's batch as a one-shot EvaluateSequences does.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fleet/trace.h"
#include "log/recovery_process.h"
#include "mining/error_type.h"
#include "rl/sequence.h"
#include "support/sequence_oracle.h"

namespace aer {
namespace {

std::vector<SequenceEvaluation> ResetPerSequence(
    std::span<const ActionSequence> sequences,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities) {
  std::vector<SequenceEvaluation> evals(sequences.size());
  for (const RecoveryProcess* p : processes) {
    ProcessReplay replay(*p, type, estimator, capabilities);
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      replay.Reset();
      bool cured = false;
      SequenceEvaluation& eval = evals[i];
      eval.total_cost += SequenceCostOnReplay(
          sequences[i], replay, type, estimator, max_actions, &cured);
      (cured ? eval.cured_by_sequence : eval.terminalized) += 1;
      ++eval.processes;
    }
  }
  for (SequenceEvaluation& eval : evals) {
    eval.mean_cost = eval.processes > 0
                         ? eval.total_cost / static_cast<double>(eval.processes)
                         : 0.0;
  }
  return evals;
}

ActionSequence RandomSequence(Rng& rng, std::size_t max_length) {
  ActionSequence seq(rng.NextBounded(max_length + 1));
  for (RepairAction& a : seq) {
    a = kAllActions[rng.NextBounded(kAllActions.size())];
  }
  return seq;
}

// A few random sequences and every prefix of each, the empty one included:
// the shape of a selection-tree batch.
std::vector<ActionSequence> PrefixClosedBatch(Rng& rng, std::size_t length) {
  std::vector<ActionSequence> batch;
  for (int n = 0; n < 5; ++n) {
    const ActionSequence seq = RandomSequence(rng, length);
    for (std::size_t len = 0; len <= seq.size(); ++len) {
      batch.emplace_back(seq.begin(),
                         seq.begin() + static_cast<std::ptrdiff_t>(len));
    }
  }
  return batch;
}

// Unrelated sequences plus duplicates of some of them and of the empty one.
std::vector<ActionSequence> ArbitraryBatch(Rng& rng, std::size_t length) {
  std::vector<ActionSequence> batch;
  for (int n = 0; n < 24; ++n) batch.push_back(RandomSequence(rng, length));
  batch.emplace_back();
  for (int n = 0; n < 6; ++n) {
    batch.push_back(batch[rng.NextBounded(batch.size())]);
  }
  return batch;
}

class TrieWalkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config = TraceConfigForScale("small");
    config.sim.num_machines = 120;
    config.sim.duration = 30 * kDay;
    const TraceDataset trace = GenerateTrace(config);
    storage_ = new std::vector<RecoveryProcess>(
        SegmentIntoProcesses(trace.result.log).processes);
    catalog_ = new ErrorTypeCatalog(*storage_, 20);
    estimator_ = new CostEstimator(*storage_, *catalog_);
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete catalog_;
    delete storage_;
  }

  static std::vector<const RecoveryProcess*> ProcessesOf(ErrorTypeId type) {
    std::vector<const RecoveryProcess*> out;
    for (const RecoveryProcess& p : *storage_) {
      if (!p.attempts().empty() && catalog_->Classify(p) == type) {
        out.push_back(&p);
      }
    }
    return out;
  }

  // Prices `batch` both ways under every action cap and capability model;
  // returns the number of sequences compared.
  static int Compare(const std::vector<ActionSequence>& batch,
                     const std::vector<const RecoveryProcess*>& processes,
                     ErrorTypeId type) {
    int compared = 0;
    for (const int max_actions : {2, 3, 20}) {
      for (const CapabilityModel* model :
           {&CapabilityModel::TotalOrder(),
            &CapabilityModel::IdentityOnly()}) {
        const auto got = EvaluateSequences(batch, processes, type,
                                           *estimator_, max_actions, *model);
        const auto want = ResetPerSequence(batch, processes, type,
                                           *estimator_, max_actions, *model);
        EXPECT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
          SCOPED_TRACE(::testing::Message()
                       << "type " << type << ", max_actions " << max_actions
                       << ", sequence " << i << " of length "
                       << batch[i].size());
          EXPECT_EQ(got[i].total_cost, want[i].total_cost);
          EXPECT_EQ(got[i].mean_cost, want[i].mean_cost);
          EXPECT_EQ(got[i].processes, want[i].processes);
          EXPECT_EQ(got[i].cured_by_sequence, want[i].cured_by_sequence);
          EXPECT_EQ(got[i].terminalized, want[i].terminalized);
          ++compared;
        }
      }
    }
    return compared;
  }

  static std::vector<RecoveryProcess>* storage_;
  static ErrorTypeCatalog* catalog_;
  static CostEstimator* estimator_;
};

std::vector<RecoveryProcess>* TrieWalkTest::storage_ = nullptr;
ErrorTypeCatalog* TrieWalkTest::catalog_ = nullptr;
CostEstimator* TrieWalkTest::estimator_ = nullptr;

TEST_F(TrieWalkTest, PrefixClosedBatchesMatchResetPerSequence) {
  ASSERT_GE(catalog_->num_types(), 3u);
  Rng rng(21);
  int compared = 0;
  for (ErrorTypeId type = 0; type < 3; ++type) {
    const auto processes = ProcessesOf(type);
    ASSERT_FALSE(processes.empty());
    for (int round = 0; round < 4; ++round) {
      // Lengths up to 24 run past every cap above.
      compared += Compare(PrefixClosedBatch(rng, round < 2 ? 6 : 24),
                          processes, type);
    }
  }
  EXPECT_GT(compared, 1000);
}

TEST_F(TrieWalkTest, ArbitraryBatchesMatchResetPerSequence) {
  Rng rng(22);
  int compared = 0;
  for (ErrorTypeId type = 0; type < 3; ++type) {
    const auto processes = ProcessesOf(type);
    for (int round = 0; round < 4; ++round) {
      compared += Compare(ArbitraryBatch(rng, round < 2 ? 5 : 24), processes,
                          type);
    }
  }
  EXPECT_GT(compared, 1000);
}

// A copy of `process` with the same attempt kinds but its own numbers:
// every logged cost and the detection delay grow by a seeded amount.
RecoveryProcess WithOwnCosts(const RecoveryProcess& process, Rng& rng) {
  std::vector<SymptomEvent> symptoms = process.symptoms();
  const SimTime earlier = rng.NextInt(1, 1800);
  for (SymptomEvent& symptom : symptoms) symptom.time -= earlier;
  std::vector<ActionAttempt> attempts = process.attempts();
  for (ActionAttempt& attempt : attempts) attempt.cost += rng.NextInt(0, 900);
  return RecoveryProcess(process.machine(), std::move(symptoms),
                         std::move(attempts), process.success_time());
}

// A process of `like`'s symptoms whose attempts cycle through the three
// machine actions, three attempts each, ending with `last`; `flip`, when in
// range, turns that attempt into a manual repair.
RecoveryProcess SyntheticProcess(const RecoveryProcess& like, std::size_t length,
                            RepairAction last, std::size_t flip) {
  std::vector<ActionAttempt> attempts(length);
  SimTime at = like.attempts().front().start;
  for (std::size_t i = 0; i < length; ++i) {
    attempts[i].action = i + 1 == length ? last
                         : i == flip     ? RepairAction::kRma
                                         : kAllActions[(i / 3) % 3];
    attempts[i].start = at;
    attempts[i].cost = 300 + static_cast<SimTime>(i);
    at += attempts[i].cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(like.machine(), like.symptoms(), std::move(attempts),
                         at);
}

// The processes' classes — equal attempt kinds, in order — as each class's
// positions in `processes`.
std::vector<std::vector<std::size_t>> ClassPositions(
    const std::vector<const RecoveryProcess*>& processes) {
  std::map<std::vector<RepairAction>, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < processes.size(); ++i) {
    std::vector<RepairAction> kinds;
    for (const ActionAttempt& a : processes[i]->attempts()) {
      kinds.push_back(a.action);
    }
    classes[kinds].push_back(i);
  }
  std::vector<std::vector<std::size_t>> out;
  for (auto& [kinds, positions] : classes) out.push_back(positions);
  return out;
}

TEST_F(TrieWalkTest, InterleavedClassesWithTheirOwnCostsMatchResetPerSequence) {
  Rng rng(23);
  int compared = 0;
  for (ErrorTypeId type = 0; type < 3; ++type) {
    std::vector<const RecoveryProcess*> processes = ProcessesOf(type);
    ASSERT_FALSE(processes.empty());
    // Up to three copies of each process with costs and delays of their
    // own; processes past the 28 attempts a packed key holds: two that
    // differ only at attempt 35, and one as long as a key holds plus one;
    // and two that differ only by a trailing no-op attempt, the kind a
    // packed key writes as zero bits.
    std::deque<RecoveryProcess> made;
    for (std::size_t i = 0, n = processes.size(); i < n; ++i) {
      for (std::uint64_t c = rng.NextBounded(4); c > 0; --c) {
        made.push_back(WithOwnCosts(*processes[i], rng));
      }
    }
    const RecoveryProcess& like = *processes.front();
    made.push_back(SyntheticProcess(like, 40, RepairAction::kReimage, 40));
    made.push_back(SyntheticProcess(like, 40, RepairAction::kReimage, 35));
    made.push_back(SyntheticProcess(like, 29, RepairAction::kReboot, 29));
    made.push_back(SyntheticProcess(like, 3, RepairAction::kTryNop, 3));
    made.push_back(SyntheticProcess(like, 4, RepairAction::kTryNop, 4));
    for (const RecoveryProcess& p : made) processes.push_back(&p);
    std::shuffle(processes.begin(), processes.end(), rng);

    // The inputs really have shared, interleaved classes.
    bool shared = false;
    bool interleaved = false;
    for (const auto& positions : ClassPositions(processes)) {
      shared |= positions.size() >= 2;
      interleaved |= positions.back() - positions.front() + 1 >
                     positions.size();
    }
    ASSERT_TRUE(shared);
    ASSERT_TRUE(interleaved);

    for (int round = 0; round < 2; ++round) {
      compared += Compare(PrefixClosedBatch(rng, 24), processes, type);
      compared += Compare(ArbitraryBatch(rng, 24), processes, type);
    }
  }
  EXPECT_GT(compared, 1000);
}

TEST_F(TrieWalkTest, EmptyAndDuplicateSequencesShareOneNode) {
  const auto processes = ProcessesOf(0);
  constexpr auto Y = RepairAction::kTryNop;
  constexpr auto A = RepairAction::kRma;
  const std::vector<ActionSequence> batch = {
      {}, {Y, A, Y}, {}, {Y, A, Y}, {Y, A}, {A, A, A, A}, {Y}};
  // Each sequence is compared under 3 action caps x 2 capability models.
  EXPECT_EQ(Compare(batch, processes, 0), 6 * static_cast<int>(batch.size()));
  const auto evals = EvaluateSequences(batch, processes, 0, *estimator_, 20);
  EXPECT_EQ(evals[0].total_cost, evals[2].total_cost);
  EXPECT_EQ(evals[1].total_cost, evals[3].total_cost);
  // Manual repair always cures, so nothing after it runs.
  EXPECT_EQ(evals[1].total_cost, evals[4].total_cost);
}

// One pricer kept across calls, as a selection-tree scan keeps it, fed
// batches that repeat and extend what earlier calls priced: every call
// equals a one-shot EvaluateSequences, and re-asking adds no node.
TEST_F(TrieWalkTest, LongLivedPricerMatchesOneShotCalls) {
  Rng rng(24);
  int compared = 0;
  for (ErrorTypeId type = 0; type < 3; ++type) {
    const auto processes = ProcessesOf(type);
    for (const int max_actions : {2, 3, 20}) {
      for (const CapabilityModel* model :
           {&CapabilityModel::TotalOrder(),
            &CapabilityModel::IdentityOnly()}) {
        SequencePricer pricer(processes, type, *estimator_, max_actions,
                              *model);
        std::vector<ActionSequence> asked;
        const auto ask = [&](const std::vector<ActionSequence>& batch) {
          std::vector<std::int32_t> nodes;
          for (const ActionSequence& s : batch) {
            nodes.push_back(pricer.Insert(s));
          }
          pricer.Price();
          const auto want = EvaluateSequences(batch, processes, type,
                                              *estimator_, max_actions, *model);
          for (std::size_t i = 0; i < batch.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "type " << type << ", max_actions " << max_actions
                         << ", sequence " << i << " of length "
                         << batch[i].size());
            const SequenceEvaluation& got = pricer.evaluation(nodes[i]);
            EXPECT_EQ(pricer.sequence(nodes[i]), batch[i]);
            EXPECT_EQ(got.total_cost, want[i].total_cost);
            EXPECT_EQ(got.mean_cost, want[i].mean_cost);
            EXPECT_EQ(got.processes, want[i].processes);
            EXPECT_EQ(got.cured_by_sequence, want[i].cured_by_sequence);
            EXPECT_EQ(got.terminalized, want[i].terminalized);
            ++compared;
          }
          asked.insert(asked.end(), batch.begin(), batch.end());
        };
        for (int call = 0; call < 4; ++call) {
          std::vector<ActionSequence> batch =
              call % 2 == 0 ? PrefixClosedBatch(rng, call < 2 ? 6 : 24)
                            : ArbitraryBatch(rng, 24);
          // Repeats and extensions of sequences earlier calls priced.
          for (int n = 0; n < 8 && !asked.empty(); ++n) {
            ActionSequence seq = asked[rng.NextBounded(asked.size())];
            batch.push_back(seq);
            const ActionSequence tail = RandomSequence(rng, 4);
            seq.insert(seq.end(), tail.begin(), tail.end());
            batch.push_back(seq);
          }
          std::shuffle(batch.begin(), batch.end(), rng);
          ask(batch);
        }
        // A call that only re-asks priced sequences adds no node.
        const std::size_t nodes = pricer.size();
        std::vector<ActionSequence> again(asked.begin(), asked.begin() + 20);
        again.emplace_back();
        ask(again);
        EXPECT_EQ(pricer.size(), nodes);
      }
    }
  }
  EXPECT_GT(compared, 1000);
}

TEST_F(TrieWalkTest, NoProcessesPricesZero) {
  const std::vector<ActionSequence> batch = {{}, {RepairAction::kReboot}};
  const auto evals = EvaluateSequences(batch, {}, 0, *estimator_, 20);
  ASSERT_EQ(evals.size(), 2u);
  for (const SequenceEvaluation& eval : evals) {
    EXPECT_EQ(eval.processes, 0);
    EXPECT_EQ(eval.total_cost, 0.0);
    EXPECT_EQ(eval.mean_cost, 0.0);
  }
}

}  // namespace
}  // namespace aer
