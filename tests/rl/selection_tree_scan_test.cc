// Equivalence of the selection-tree scan with the form it replaced: a
// per-check std::set of every candidate prefix, priced through a map keyed
// by EncodeState and picked in the set's lexicographic order. Both scans run
// over the same Q-table views — the tables a trainer holds at each of its
// checks — and must pick the same sequence every time, near-ties included.
#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/trace.h"
#include "rl/selection_tree.h"
#include "three_type_fixture.h"

namespace aer {
namespace {

class SetAndMapScan {
 public:
  SetAndMapScan(const QLearningTrainer& base, const SelectionTreeConfig& config,
                ErrorTypeId type)
      : base_(base), config_(config), type_(type) {}

  ActionSequence Pick(const QTable& view) {
    const TrainerConfig& tc = base_.config();
    std::vector<ActionSequence> candidates =
        BuildCandidateSequences(view, type_, tc.max_actions, config_);
    if (config_.seed_escalation_candidates) {
      const std::vector<RepairAction>& allowed =
          base_.platform().estimator().ObservedActions(type_);
      for (std::size_t start = 0; start < allowed.size(); ++start) {
        ActionSequence seq;
        for (std::size_t i = start; i < allowed.size(); ++i) {
          seq.push_back(allowed[i]);
          if (allowed[i] != RepairAction::kRma) seq.push_back(allowed[i]);
        }
        candidates.push_back(std::move(seq));
      }
    }
    std::set<ActionSequence> scored;
    for (const ActionSequence& candidate : candidates) {
      for (std::size_t len = 1; len <= candidate.size(); ++len) {
        scored.insert(ActionSequence(
            candidate.begin(),
            candidate.begin() + static_cast<std::ptrdiff_t>(len)));
      }
    }
    std::vector<ActionSequence> unpriced;
    for (const ActionSequence& seq : scored) {
      if (!priced_.contains(EncodeState(type_, seq))) unpriced.push_back(seq);
    }
    const std::vector<SequenceEvaluation> evals = EvaluateSequences(
        unpriced, base_.processes_of(type_), type_,
        base_.platform().estimator(), tc.max_actions,
        base_.platform().capabilities());
    for (std::size_t i = 0; i < unpriced.size(); ++i) {
      priced_.emplace(EncodeState(type_, unpriced[i]), evals[i]);
    }

    ActionSequence best;
    double best_cost = std::numeric_limits<double>::infinity();
    std::int64_t best_cured = -1;
    for (const ActionSequence& seq : scored) {
      const SequenceEvaluation& eval =
          priced_.find(EncodeState(type_, seq))->second;
      if (std::abs(eval.mean_cost - best_cost) < 1e-9) ++near_ties_;
      const bool better =
          eval.mean_cost < best_cost - 1e-9 ||
          (eval.mean_cost < best_cost + 1e-9 &&
           (eval.cured_by_sequence > best_cured ||
            (eval.cured_by_sequence == best_cured &&
             seq.size() < best.size())));
      if (better) {
        best_cost = eval.mean_cost;
        best_cured = eval.cured_by_sequence;
        best = seq;
      }
    }
    return best;
  }

  // Sequences whose cost came within the tie tolerance of the best so far.
  int near_ties() const { return near_ties_; }

 private:
  const QLearningTrainer& base_;
  SelectionTreeConfig config_;
  ErrorTypeId type_;
  std::unordered_map<StateKey, SequenceEvaluation> priced_;
  int near_ties_ = 0;
};

struct ScanComparison {
  int checks = 0;
  int near_ties = 0;
};

// Replays a selection-tree training of `type` check by check: the view at
// check k is the table after k * check_every sweeps, which a plain trainer
// capped there reproduces (the sweeps draw the same stream whatever the
// generator). Both scans see every view in order and must agree; the last
// pick must be the trainer's sequence.
ScanComparison CompareScans(const SimulationPlatform& platform,
                            std::span<const RecoveryProcess> processes,
                            const TrainerConfig& config, ErrorTypeId type) {
  ScanComparison out;
  const QLearningTrainer base(platform, processes, config);
  if (base.processes_of(type).empty()) return out;
  const SelectionTreeConfig tree_config;
  const TypeTrainingResult trained =
      SelectionTreeTrainer(base, tree_config).TrainType(type);
  const std::int64_t checks = trained.episodes / config.check_every;

  SelectionTreeScan scan(base, tree_config, type);
  SetAndMapScan oracle(base, tree_config, type);
  ActionSequence last;
  for (std::int64_t k = 1; k <= checks; ++k) {
    TrainerConfig capped = config;
    capped.max_sweeps = k * config.check_every;
    capped.min_sweeps = capped.max_sweeps;
    QTable view;
    QLearningTrainer(platform, processes, capped).TrainType(type, &view);
    last = scan.Pick(view);
    EXPECT_EQ(last, oracle.Pick(view)) << "type " << type << ", check " << k;
    ++out.checks;
  }
  if (!last.empty()) {
    EXPECT_EQ(last, trained.sequence) << "type " << type;
  }
  out.near_ties = oracle.near_ties();
  return out;
}

// Two candidates of one length at exactly one price: the pick depends only
// on visiting sequences in lexicographic order. Every process needs both
// REBOOT and TRYNOP (identity-only relation), so [Y, B] and [B, Y] cure the
// same processes with the same logged steps.
TEST(SelectionTreeScanTest, ExactTieGoesToTheLexicographicallyFirst) {
  constexpr auto Y = RepairAction::kTryNop;
  constexpr auto B = RepairAction::kReboot;
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 20; ++i) {
    processes.push_back(testing::MakeThreeTypeProcess(
        {{B, 1000}, {Y, 500}}, 0, i, 100 * i));
  }
  SymptomTable symptoms;
  symptoms.Intern("both");
  const ErrorTypeCatalog catalog(processes, 40);
  const SimulationPlatform platform(processes, catalog, symptoms, 20,
                                    CapabilityModel::IdentityOnly());
  const QLearningTrainer base(platform, processes, TrainerConfig{});
  const ActionSequence yb = {Y, B};
  const ActionSequence by = {B, Y};
  const auto price = [&](const ActionSequence& seq) {
    return EvaluateSequence(seq, base.processes_of(0), 0,
                            platform.estimator(), 20,
                            platform.capabilities());
  };
  ASSERT_EQ(price(yb).mean_cost, price(by).mean_cost);
  ASSERT_EQ(price(yb).cured_by_sequence, price(by).cured_by_sequence);

  // A view whose tree is exactly the two orders.
  QTable view;
  view.Update(EncodeState(0, {}), B, 100.0);
  view.Update(EncodeState(0, {}), Y, 100.0);
  view.Update(EncodeState(0, ActionSequence{Y}), B, 50.0);
  view.Update(EncodeState(0, ActionSequence{B}), Y, 50.0);
  const SelectionTreeConfig config;
  ASSERT_EQ(BuildCandidateSequences(view, 0, 20, config),
            (std::vector<ActionSequence>{yb, by}));
  SelectionTreeScan scan(base, config, 0);
  SetAndMapScan oracle(base, config, 0);
  EXPECT_EQ(oracle.Pick(view), yb);
  EXPECT_EQ(scan.Pick(view), yb);
}

TEST(SelectionTreeScanTest, MatchesSetAndMapScanOnThreeTypeFixture) {
  const testing::ThreeTypeFixture fx;
  ScanComparison total;
  for (std::size_t t = 0; t < fx.num_types(); ++t) {
    const ScanComparison c =
        CompareScans(fx.platform, fx.processes, testing::ThreeTypeConfig(3),
                     static_cast<ErrorTypeId>(t));
    total.checks += c.checks;
    total.near_ties += c.near_ties;
  }
  EXPECT_GE(total.checks, 15);
  EXPECT_GT(total.near_ties, 0);
}

TEST(SelectionTreeScanTest, MatchesSetAndMapScanOnSmallTrace) {
  const TraceDataset trace = GenerateTrace(TraceConfigForScale("small"));
  const std::vector<RecoveryProcess> processes =
      SegmentIntoProcesses(trace.result.log).processes;
  const ErrorTypeCatalog types(processes, 40);
  const SimulationPlatform platform(processes, types,
                                    trace.result.log.symptoms(), 20);
  TrainerConfig config;
  config.max_sweeps = 8000;
  config.min_sweeps = 1000;
  config.check_every = 250;
  ScanComparison total;
  for (std::size_t t = 0; t < types.num_types(); ++t) {
    const ScanComparison c =
        CompareScans(platform, processes, config, static_cast<ErrorTypeId>(t));
    total.checks += c.checks;
    total.near_ties += c.near_ties;
  }
  EXPECT_GT(total.checks, 40);
  EXPECT_GT(total.near_ties, 0);
}

}  // namespace
}  // namespace aer
