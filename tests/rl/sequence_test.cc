#include "rl/sequence.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "../fleet/sim_checksum.h"
#include "cluster/fault_catalog.h"
#include "common/rng.h"
#include "fleet/trace.h"
#include "support/sequence_oracle.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;
constexpr auto A = RepairAction::kRma;

RecoveryProcess MakeProcess(std::vector<std::pair<RepairAction, SimTime>>
                                attempts_with_costs,
                            SymptomId symptom = 0) {
  std::vector<SymptomEvent> symptoms = {{0, symptom}};
  std::vector<ActionAttempt> attempts;
  SimTime t = 50;  // detection delay 50
  for (const auto& [action, cost] : attempts_with_costs) {
    attempts.push_back({action, t, cost, false});
    t += cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(0, std::move(symptoms), std::move(attempts), t);
}

struct Fixture {
  std::vector<RecoveryProcess> storage;
  std::vector<const RecoveryProcess*> processes;
  ErrorTypeCatalog catalog;
  CostEstimator estimator;
  ErrorTypeId type;

  explicit Fixture(std::vector<RecoveryProcess> p)
      : storage(std::move(p)),
        catalog(storage, 40),
        estimator(storage, catalog),
        type(catalog.ClassifySymptom(0)) {
    for (const auto& proc : storage) processes.push_back(&proc);
  }
};

// A "stuck service" type: TRYNOP always fails (cost 900), REBOOT cures
// (cost 2400). Log produced by cheapest-first: [Y fail, B success].
Fixture StuckServiceFixture(int n = 10) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < n; ++i) {
    processes.push_back(MakeProcess({{Y, 900}, {B, 2400}}));
  }
  return Fixture(std::move(processes));
}

TEST(EvaluateSequenceTest, OriginalSequenceReproducesActualMeanCost) {
  Fixture fx = StuckServiceFixture();
  const ActionSequence original = {Y, B};
  const SequenceEvaluation eval = EvaluateSequence(
      original, fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.processes, 10);
  EXPECT_EQ(eval.cured_by_sequence, 10);
  EXPECT_EQ(eval.terminalized, 0);
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + 2400);
}

TEST(EvaluateSequenceTest, RebootFirstSavesTheWastedWatch) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{B}, fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.cured_by_sequence, 10);
  // REBOOT's actual cost is consumed from the log occurrence.
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 2400);
}

TEST(EvaluateSequenceTest, ExhaustedSequenceContinuesEscalation) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{Y}, fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.cured_by_sequence, 0);
  EXPECT_EQ(eval.terminalized, 10);
  // After the exhausted [Y], escalation continues with Y (already used once
  // more... strongest is Y so it retries Y then B): Y(avg fail) then B cures.
  // Y's average failing cost is 900, B's actual 2400.
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + 900 + 2400);
}

TEST(EvaluateSequenceTest, CapForcesManualRepair) {
  Fixture fx = StuckServiceFixture();
  // Cap of 2 actions: [Y] then forced RMA although escalation would go on.
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{Y}, fx.processes, fx.type, fx.estimator, 2);
  const ActionDurationDefaults priors;
  // Step 1 = Y (actual 900); escalation would continue but the cap says the
  // 2nd slot must be manual repair.
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + priors.rma_s);
}

TEST(EvaluateSequenceTest, EmptyProcessListIsZero) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{B}, {}, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.processes, 0);
  EXPECT_EQ(eval.mean_cost, 0.0);
}

TEST(ExactBestSequenceTest, StuckServiceOptimumIsRebootFirst) {
  Fixture fx = StuckServiceFixture();
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(best, (ActionSequence{B}));
}

TEST(ExactBestSequenceTest, TransientOptimumKeepsCheapestFirst) {
  // 8 of 10 processes cured by TRYNOP (cheap), 2 needed REBOOT.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 8; ++i) processes.push_back(MakeProcess({{Y, 900}}));
  for (int i = 0; i < 2; ++i) {
    processes.push_back(MakeProcess({{Y, 900}, {B, 2400}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  ASSERT_FALSE(best.empty());
  EXPECT_EQ(best.front(), Y);
}

TEST(ExactBestSequenceTest, HardwareOptimumIsStraightToManualRepair) {
  // Everything failed until RMA.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 6; ++i) {
    processes.push_back(MakeProcess(
        {{Y, 900}, {B, 2400}, {B, 2400}, {I, 9000}, {I, 9000}, {A, 90000}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(best, (ActionSequence{A}));
}

TEST(ExactBestSequenceTest, RepeatedRequirementNeedsRepeatedAction) {
  // Incidents that took two REBOOTs: the optimum repeats REBOOT rather than
  // jumping to the much costlier REIMAGE.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 10; ++i) {
    processes.push_back(MakeProcess({{B, 2400}, {B, 2400}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(best, (ActionSequence{B, B}));
}

TEST(ExactBestSequenceTest, NeverWorseThanObservedBehaviour) {
  // Property: the exact optimum must cost at most what the logged policy
  // cost (the logged sequence is in the search space, restricted to
  // observed actions).
  Fixture fx = StuckServiceFixture();
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  const double best_cost =
      EvaluateSequence(best, fx.processes, fx.type, fx.estimator, 20)
          .mean_cost;
  const double logged_cost =
      EvaluateSequence(
      ActionSequence{Y, B}, fx.processes, fx.type, fx.estimator, 20)
          .mean_cost;
  EXPECT_LE(best_cost, logged_cost + 1e-9);
}

TEST(ExactBestSequenceTest, RespectsObservedActionRestriction) {
  // REIMAGE/RMA never appear in this type's log, so even though the fixture
  // is "hardware-like" the search may only use TRYNOP/REBOOT.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 4; ++i) {
    processes.push_back(MakeProcess({{Y, 900}, {B, 2400}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  for (RepairAction a : best) {
    EXPECT_TRUE(a == Y || a == B);
  }
}

// Pins the whole search surface: every type of five generated traces
// (60 days each) at action caps 2, 3, 5 and 20. The returned sequences fold
// into one FNV-1a fingerprint, recorded with the branch-and-bound searcher
// that the enumeration replaced. The 2000-machine trace has a type whose
// optimum takes all six actions, so the length bound binds; the
// 8000-machine one has a near-tie at cap 2 that comparing mean instead of
// total cost within 1e-9 would settle the other way.
TEST(ExactBestSequenceTest, GeneratedTracesPinEveryTypeAtEveryCap) {
  struct TraceSpec {
    int machines;
    std::uint64_t seed;
  };
  fleet::Fnv1a64 h;
  int cases = 0;
  for (const TraceSpec spec :
       {TraceSpec{300, 1}, TraceSpec{300, 2}, TraceSpec{300, 3},
        TraceSpec{2000, 1}, TraceSpec{8000, 5}}) {
    TraceConfig config = TraceConfigForScale("small");
    config.sim.num_machines = spec.machines;
    config.sim.duration = 60 * kDay;
    config.sim.seed = spec.seed;
    config.catalog.seed = spec.seed;
    const TraceDataset trace = GenerateTrace(config);
    const std::vector<RecoveryProcess> storage =
        SegmentIntoProcesses(trace.result.log).processes;
    const ErrorTypeCatalog catalog(storage, 40);
    const CostEstimator estimator(storage, catalog);
    std::vector<std::vector<const RecoveryProcess*>> by_type(
        catalog.num_types());
    for (const RecoveryProcess& p : storage) {
      const ErrorTypeId type = catalog.Classify(p);
      if (!p.attempts().empty() && type != kInvalidErrorType) {
        by_type[static_cast<std::size_t>(type)].push_back(&p);
      }
    }
    for (std::size_t t = 0; t < by_type.size(); ++t) {
      if (by_type[t].empty()) continue;
      for (const int cap : {2, 3, 5, 20}) {
        const ActionSequence best = ExactBestSequence(
            by_type[t], static_cast<ErrorTypeId>(t), estimator, cap);
        h.Int(static_cast<std::int64_t>(spec.seed));
        h.Int(static_cast<std::int64_t>(t));
        h.Int(cap);
        h.Int(static_cast<std::int64_t>(best.size()));
        for (const RepairAction a : best) h.Int(ActionIndex(a));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 800);  // 40 types per trace
  EXPECT_EQ(h.value(), 0x4597011935a61ba5ULL) << std::hex << h.value();
}

void ExpectSameEvaluation(const SequenceEvaluation& got,
                          const SequenceEvaluation& want) {
  EXPECT_EQ(got.total_cost, want.total_cost);
  EXPECT_EQ(got.mean_cost, want.mean_cost);
  EXPECT_EQ(got.processes, want.processes);
  EXPECT_EQ(got.cured_by_sequence, want.cured_by_sequence);
  EXPECT_EQ(got.terminalized, want.terminalized);
}

// The batch pricer reuses one replay per process across the whole batch, so
// each price must not depend on what else is in the batch or on what the
// replay priced before its Reset(): element i equals pricing sequence i
// alone, with a fresh replay per process, bit for bit.
TEST(EvaluateSequencesTest, BatchEqualsSeparateCalls) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 120;
  config.sim.duration = 30 * kDay;
  const TraceDataset trace = GenerateTrace(config);
  const std::vector<RecoveryProcess> storage =
      SegmentIntoProcesses(trace.result.log).processes;
  const ErrorTypeCatalog catalog(storage, 20);
  const CostEstimator estimator(storage, catalog);
  ASSERT_GE(catalog.num_types(), 3u);

  Rng rng(7);
  int priced = 0;
  for (const CapabilityModel* model :
       {&CapabilityModel::TotalOrder(), &CapabilityModel::IdentityOnly()}) {
    for (ErrorTypeId type = 0; type < 3; ++type) {
      std::vector<const RecoveryProcess*> processes;
      for (const RecoveryProcess& p : storage) {
        if (!p.attempts().empty() && catalog.Classify(p) == type) {
          processes.push_back(&p);
        }
      }
      const std::vector<RepairAction>& allowed =
          estimator.ObservedActions(type);
      ASSERT_FALSE(allowed.empty());

      // Every prefix (the empty one too) of a few random sequences.
      std::vector<ActionSequence> batch;
      for (int n = 0; n < 6; ++n) {
        ActionSequence seq(1 + rng.NextBounded(8));
        for (RepairAction& a : seq) {
          a = allowed[rng.NextBounded(allowed.size())];
        }
        for (std::size_t len = 0; len <= seq.size(); ++len) {
          batch.emplace_back(seq.begin(),
                             seq.begin() + static_cast<std::ptrdiff_t>(len));
        }
      }
      const std::vector<ActionSequence> reversed(batch.rbegin(),
                                                 batch.rend());

      const auto evals =
          EvaluateSequences(batch, processes, type, estimator, 20, *model);
      const auto evals_reversed = EvaluateSequences(
          reversed, processes, type, estimator, 20, *model);
      ASSERT_EQ(evals.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "type " << type << ", "
                                          << "sequence " << i);
        SequenceEvaluation alone;
        for (const RecoveryProcess* p : processes) {
          bool cured = false;
          ProcessReplay replay(*p, type, estimator, *model);
          alone.total_cost += SequenceCostOnReplay(batch[i], replay, type,
                                                   estimator, 20, &cured);
          (cured ? alone.cured_by_sequence : alone.terminalized) += 1;
          ++alone.processes;
        }
        alone.mean_cost =
            alone.total_cost / static_cast<double>(alone.processes);
        ExpectSameEvaluation(evals[i], alone);
        ExpectSameEvaluation(evals[i],
                             EvaluateSequence(batch[i], processes, type,
                                              estimator, 20, *model));
        ExpectSameEvaluation(evals_reversed[batch.size() - 1 - i], alone);
        ++priced;
      }
    }
  }
  EXPECT_GT(priced, 100);
}

TEST(EvaluateSequencesTest, EmptyBatchIsEmpty) {
  Fixture fx = StuckServiceFixture();
  EXPECT_TRUE(
      EvaluateSequences({}, fx.processes, fx.type, fx.estimator, 20).empty());
}

}  // namespace
}  // namespace aer
