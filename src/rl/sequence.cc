#include "rl/sequence.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/check.h"

namespace aer {

namespace {

using ActionUses = std::array<int, kNumActions>;

// Whether a sequence's next action still runs: a sequence stops at a cure
// and at the manual-repair cap.
bool CanStep(const ProcessReplay& replay, int max_actions) {
  return !replay.cured() && replay.steps() < max_actions - 1;
}

// The terminalization after a sequence ran out uncured. `strongest` is the
// strongest action the sequence executed and `used` counts its executions
// of each action; `step(a)` executes `a` on `replay`.
template <typename StepFn>
void Terminalize(const ProcessReplay& replay, ErrorTypeId type,
                 const CostEstimator& estimator, int max_actions,
                 RepairAction strongest, const ActionUses& used,
                 StepFn&& step) {
  if (!replay.cured()) {
    // Keep escalating from the strongest level the sequence reached, with
    // each level tried up to twice overall (counting the sequence's own
    // uses of it), manual repair once.
    for (RepairAction a : estimator.ObservedActions(type)) {
      if (!AtLeastAsStrong(a, strongest)) continue;
      const int budget = a == RepairAction::kRma ? 1 : 2;
      const int tries =
          budget - used[static_cast<std::size_t>(ActionIndex(a))];
      for (int i = 0; i < tries && CanStep(replay, max_actions); ++i) {
        step(a);
      }
      if (replay.cured()) break;
    }
  }
  if (!replay.cured()) {
    step(RepairAction::kRma);  // forced manual repair at the cap
  }
}

// The classes of a SequencePricer: processes with the same attempt kinds,
// in order. A key packs the kinds two bits each under the attempt count in
// the top byte, so two processes share a key only if they share both. A
// process with more attempts than a key holds gets a class of its own.
constexpr std::size_t kMaxKeyedAttempts = 28;
static_assert(kNumActions <= 4 && 2 * kMaxKeyedAttempts <= 56);

std::optional<std::uint64_t> ClassKey(const RecoveryProcess& process) {
  const std::vector<ActionAttempt>& attempts = process.attempts();
  if (attempts.size() > kMaxKeyedAttempts) return std::nullopt;
  std::uint64_t key = std::uint64_t{attempts.size()} << 56;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    key |= static_cast<std::uint64_t>(ActionIndex(attempts[i].action))
           << (2 * i);
  }
  return key;
}

// The pricing of every sequence of a trie against any member of one class,
// as straight-line code over the member's own numbers. A price is the
// running total at a node (the detection delay plus one term per step on
// the way down) plus the terms of its escalation tail, added in step order;
// a term is a logged attempt's cost or an estimate. Running it adds the same
// doubles in the same order as a replay of the member would.
class ClassProgram {
 public:
  enum class Code : std::uint8_t {
    kPush,   // running[d + 1] = running[d] + values[arg]; ++d
    kPop,    // --d
    kPrice,  // cost = running[d]; the price's kTerm ops follow
    kTerm,   // cost += values[arg]
    kAdd,    // totals[arg] += cost
  };
  struct Op {
    Code code;
    std::int32_t arg;
  };

  // `attempts` is the members' attempt count: values[0, attempts) hold the
  // running member's logged costs, and each estimate gets a slot after
  // them per (action, cured).
  explicit ClassProgram(std::size_t attempts)
      : attempts_(attempts), values_(attempts + 2 * kNumActions) {}

  void Emit(Code code, std::int32_t arg = 0) { ops_.push_back({code, arg}); }

  // The term of a step that found its action's State::next at `next`: that
  // logged attempt's cost, or else the estimate the step used.
  std::int32_t Term(std::size_t next, RepairAction action,
                    const ProcessReplay::StepResult& step) {
    if (next < attempts_) return static_cast<std::int32_t>(next);
    const std::size_t slot =
        attempts_ + 2 * static_cast<std::size_t>(ActionIndex(action)) +
        (step.cured ? 1 : 0);
    values_[slot] = step.cost;
    return static_cast<std::int32_t>(slot);
  }

  // Adds `process`'s price of each node the program prices to that node's
  // total. `running` has a slot per step of the longest path, plus one.
  void Run(const RecoveryProcess& process, std::span<double> running,
           std::span<double> totals) {
    const std::vector<ActionAttempt>& attempts = process.attempts();
    for (std::size_t j = 0; j < attempts_; ++j) {
      values_[j] = static_cast<double>(attempts[j].cost);
    }
    std::size_t d = 0;
    running[0] = static_cast<double>(process.detection_delay());
    double cost = 0.0;
    for (const Op& op : ops_) {
      const auto arg = static_cast<std::size_t>(op.arg);
      switch (op.code) {
        case Code::kPush:
          running[d + 1] = running[d] + values_[arg];
          ++d;
          break;
        case Code::kPop:
          --d;
          break;
        case Code::kPrice:
          cost = running[d];
          break;
        case Code::kTerm:
          cost += values_[arg];
          break;
        case Code::kAdd:
          totals[arg] += cost;
          break;
      }
    }
  }

 private:
  std::size_t attempts_;
  std::vector<double> values_;
  std::vector<Op> ops_;
};

}  // namespace

// Compiles the walk of the trie for one class: it runs the class's first
// member depth-first through one replay, down only the paths to new nodes,
// stepping every edge once and branching through Save()/Restore(), and
// emits what each step adds instead of adding it. Along a path the replay
// executes exactly the steps of one replay of the node's sequence and its
// terminalization, so the program's prices are that replay's.
class SequencePricer::TrieWalk {
 public:
  // Walks on a fresh `replay` into an empty `program`. Each outcome counts
  // `members` times in its node's evaluation; the totals are left to
  // ClassProgram::Run.
  TrieWalk(SequencePricer& pricer, ProcessReplay& replay,
           ClassProgram& program, std::int64_t members)
      : pricer_(pricer), replay_(replay), program_(program), members_(members) {
    Visit(kRoot, RepairAction::kTryNop);
  }

 private:
  // Whether the walk goes down to `child` (-1: no child): whether a node
  // added since the last call lies in its subtree.
  bool OnPath(std::int32_t child) const {
    return child >= 0 && pricer_.node(child).newest >= pricer_.priced_;
  }

  void Visit(std::int32_t node, RepairAction strongest) {
    if (!CanStep(replay_, pricer_.max_actions_)) {
      // The sequences at and below this node stop here alike.
      AddToSubtree(node, Price(strongest));
      return;
    }
    const Node& n = pricer_.node(node);
    if (node >= pricer_.priced_) Add(node, Price(strongest));
    for (std::size_t i = 0; i < n.child.size(); ++i) {
      if (!OnPath(n.child[i])) continue;
      const RepairAction a = kAllActions[i];
      const ProcessReplay::State saved = replay_.Save();
      program_.Emit(ClassProgram::Code::kPush, Step(a));
      ++used_[i];
      Visit(n.child[i],
            ActionStrength(a) > ActionStrength(strongest) ? a : strongest);
      --used_[i];
      program_.Emit(ClassProgram::Code::kPop);
      replay_.Restore(saved);
    }
  }

  // Steps the replay and returns the term the step added.
  std::int32_t Step(RepairAction a) {
    const std::size_t next =
        replay_.Save().next[static_cast<std::size_t>(ActionIndex(a))];
    return program_.Term(next, a, replay_.Step(a));
  }

  // Emits the price of the sequence that led to the replay's current state:
  // the terminalization runs on the replay and is then undone. Returns
  // whether the sequence itself cured.
  bool Price(RepairAction strongest) {
    const ProcessReplay::State saved = replay_.Save();
    const bool cured = replay_.cured();
    program_.Emit(ClassProgram::Code::kPrice);
    Terminalize(replay_, pricer_.type_, pricer_.estimator_,
                pricer_.max_actions_, strongest, used_,
                [this](RepairAction a) {
                  program_.Emit(ClassProgram::Code::kTerm, Step(a));
                });
    replay_.Restore(saved);
    return cured;
  }

  void AddToSubtree(std::int32_t node, bool cured) {
    const Node& n = pricer_.node(node);
    if (node >= pricer_.priced_) Add(node, cured);
    for (const std::int32_t child : n.child) {
      if (OnPath(child)) AddToSubtree(child, cured);
    }
  }

  void Add(std::int32_t node, bool cured) {
    Node& n = pricer_.node(node);
    program_.Emit(ClassProgram::Code::kAdd, node - pricer_.priced_);
    (cured ? n.eval.cured_by_sequence : n.eval.terminalized) += members_;
    n.eval.processes += members_;
  }

  SequencePricer& pricer_;
  ProcessReplay& replay_;
  ClassProgram& program_;
  std::int64_t members_;
  ActionUses used_ = {};
};

SequencePricer::SequencePricer(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities)
    : processes_(processes),
      type_(type),
      estimator_(estimator),
      max_actions_(max_actions),
      capabilities_(capabilities),
      class_of_(processes.size()),
      nodes_(1) {
  AER_CHECK_GE(max_actions, 1);
  // A class's first member stands for it.
  std::unordered_map<std::uint64_t, std::int32_t> class_of_key;
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const auto next = static_cast<std::int32_t>(first_member_.size());
    std::int32_t c = next;
    if (const std::optional<std::uint64_t> key = ClassKey(*processes[i])) {
      c = class_of_key.try_emplace(*key, next).first->second;
    }
    class_of_[i] = c;
    if (c == next) {
      first_member_.push_back(i);
      members_.push_back(0);
    }
    ++members_[static_cast<std::size_t>(c)];
  }
}

std::int32_t SequencePricer::Extend(std::int32_t id, RepairAction action) {
  const auto i = static_cast<std::size_t>(ActionIndex(action));
  std::int32_t next = node(id).child[i];
  if (next < 0) {
    next = static_cast<std::int32_t>(nodes_.size());
    node(id).child[i] = next;
    Node& added = nodes_.emplace_back();
    added.parent = id;
    added.action = action;
    added.newest = next;
    for (std::int32_t n = id; n >= 0; n = node(n).parent) node(n).newest = next;
  }
  return next;
}

std::int32_t SequencePricer::Insert(std::span<const RepairAction> sequence) {
  std::int32_t node = kRoot;
  for (RepairAction a : sequence) node = Extend(node, a);
  return node;
}

void SequencePricer::Price() {
  const auto added = static_cast<std::int32_t>(nodes_.size());
  if (priced_ == added) return;

  // One walk per class compiles its program.
  std::vector<ClassProgram> programs;
  programs.reserve(first_member_.size());
  for (std::size_t c = 0; c < first_member_.size(); ++c) {
    const RecoveryProcess& first = *processes_[first_member_[c]];
    ProcessReplay replay(first, type_, estimator_, capabilities_);
    TrieWalk(*this, replay, programs.emplace_back(first.attempts().size()),
             members_[c]);
  }

  // One run per process, in process order: each node's total adds the
  // same doubles in the same order as one replay per process would. A path
  // steps at most max_actions - 1 times, and no deeper than the trie.
  std::vector<double> running(
      std::min(static_cast<std::size_t>(max_actions_), nodes_.size()));
  std::vector<double> totals(static_cast<std::size_t>(added - priced_));
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    programs[static_cast<std::size_t>(class_of_[i])].Run(*processes_[i],
                                                         running, totals);
  }
  for (std::int32_t id = priced_; id < added; ++id) {
    SequenceEvaluation& eval = node(id).eval;
    eval.total_cost = totals[static_cast<std::size_t>(id - priced_)];
    eval.mean_cost = eval.processes > 0
                         ? eval.total_cost / static_cast<double>(eval.processes)
                         : 0.0;
  }
  priced_ = added;
}

ActionSequence SequencePricer::sequence(std::int32_t id) const {
  ActionSequence out;
  for (std::int32_t n = id; n != kRoot; n = node(n).parent) {
    out.push_back(node(n).action);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<SequenceEvaluation> EvaluateSequences(
    std::span<const ActionSequence> sequences,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities) {
  SequencePricer pricer(processes, type, estimator, max_actions,
                        capabilities);
  std::vector<std::int32_t> nodes;
  for (const ActionSequence& s : sequences) nodes.push_back(pricer.Insert(s));
  pricer.Price();
  std::vector<SequenceEvaluation> evals;
  evals.reserve(sequences.size());
  for (const std::int32_t id : nodes) evals.push_back(pricer.evaluation(id));
  return evals;
}

SequenceEvaluation EvaluateSequence(
    std::span<const RepairAction> sequence,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities) {
  SequencePricer pricer(processes, type, estimator, max_actions,
                        capabilities);
  const std::int32_t node = pricer.Insert(sequence);
  pricer.Price();
  return pricer.evaluation(node);
}

namespace {

// Appends `prefix` and each of its extensions over `actions` up to
// `max_length` actions, in depth-first (lexicographic) order.
void AppendSequences(ActionSequence& prefix,
                     std::span<const RepairAction> actions,
                     std::size_t max_length,
                     std::vector<ActionSequence>& out) {
  out.push_back(prefix);
  if (prefix.size() == max_length) return;
  for (RepairAction a : actions) {
    prefix.push_back(a);
    AppendSequences(prefix, actions, max_length, out);
    prefix.pop_back();
  }
}

}  // namespace

ActionSequence ExactBestSequence(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions) {
  AER_CHECK(!processes.empty());
  AER_CHECK_GE(max_actions, 1);
  // The optimum is short in practice: appending actions only pays while
  // uncured processes remain.
  constexpr int kMaxLength = 6;
  const auto max_length =
      static_cast<std::size_t>(std::min(kMaxLength, max_actions - 1));
  std::vector<ActionSequence> sequences;
  ActionSequence prefix;
  AppendSequences(prefix, estimator.ObservedActions(type), max_length,
                  sequences);
  const std::vector<SequenceEvaluation> evals =
      EvaluateSequences(sequences, processes, type, estimator, max_actions);
  // The first best in enumeration order. Order: total cost, then
  // self-contained cures (more is better — the policy should not rely on
  // terminalization for incidents it can finish), then shorter (dead tails
  // never appear in the optimum).
  std::size_t best = 0;
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    const SequenceEvaluation& e = evals[i];
    const SequenceEvaluation& b = evals[best];
    const bool better =
        e.total_cost < b.total_cost - 1e-9 ||
        (e.total_cost < b.total_cost + 1e-9 &&
         (e.cured_by_sequence > b.cured_by_sequence ||
          (e.cured_by_sequence == b.cured_by_sequence &&
           sequences[i].size() < sequences[best].size())));
    if (better) best = i;
  }
  return sequences[best];
}

}  // namespace aer
