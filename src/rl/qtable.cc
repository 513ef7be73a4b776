#include "rl/qtable.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"

namespace aer {

bool QTable::Has(StateKey s, RepairAction a) const {
  const auto it = table_.find(s);
  return it != table_.end() &&
         it->second[static_cast<std::size_t>(ActionIndex(a))].visits > 0;
}

double QTable::Q(StateKey s, RepairAction a) const {
  const auto it = table_.find(s);
  AER_CHECK(it != table_.end())
      << "Q() on unexplored state 0x" << std::hex << s;
  const Entry& e = it->second[static_cast<std::size_t>(ActionIndex(a))];
  AER_CHECK_GT(e.visits, 0) << "Q() on unexplored action " << ActionName(a)
                            << " of state 0x" << std::hex << s;
  return e.q;
}

std::int64_t QTable::Visits(StateKey s, RepairAction a) const {
  const auto it = table_.find(s);
  if (it == table_.end()) return 0;
  return it->second[static_cast<std::size_t>(ActionIndex(a))].visits;
}

const std::array<QTable::Entry, kNumActions>* QTable::Find(StateKey s) const {
  const auto it = table_.find(s);
  return it == table_.end() ? nullptr : &it->second;
}

double QTable::Update(StateKey s, RepairAction a, double target) {
  Entry& e = table_[s][static_cast<std::size_t>(ActionIndex(a))];
  // α = 1/(1+visits): the very first update adopts the target wholesale, so
  // the table needs no meaningful initial values. (First updates also adopt
  // the target under a fixed α, for the same reason.)
  const double alpha =
      fixed_alpha_ > 0.0 && e.visits > 0
          ? fixed_alpha_
          : 1.0 / (1.0 + static_cast<double>(e.visits));
  const double old_q = e.q;
  e.q = (1.0 - alpha) * e.q + alpha * target;
  ++e.visits;
  ++total_updates_;
  return e.q - old_q;
}

std::optional<RepairAction> QTable::BestAction(StateKey s) const {
  const auto it = table_.find(s);
  if (it == table_.end()) return std::nullopt;
  std::optional<RepairAction> best;
  double best_q = 0.0;
  for (int i = 0; i < kNumActions; ++i) {
    const Entry& e = it->second[static_cast<std::size_t>(i)];
    if (e.visits > 0 && (!best.has_value() || e.q < best_q)) {
      best = ActionFromIndex(i);
      best_q = e.q;
    }
  }
  return best;
}

std::optional<QTable::BestTwo> QTable::BestTwoActions(StateKey s) const {
  const auto it = table_.find(s);
  if (it == table_.end()) return std::nullopt;
  std::optional<BestTwo> out;
  for (int i = 0; i < kNumActions; ++i) {
    const Entry& e = it->second[static_cast<std::size_t>(i)];
    if (e.visits == 0) continue;
    if (!out.has_value()) {
      out = BestTwo{ActionFromIndex(i), e.q, std::nullopt, 0.0};
    } else if (e.q < out->best_q) {
      out->second = out->best;
      out->second_q = out->best_q;
      out->best = ActionFromIndex(i);
      out->best_q = e.q;
    } else if (!out->second.has_value() || e.q < out->second_q) {
      out->second = ActionFromIndex(i);
      out->second_q = e.q;
    }
  }
  return out;
}

namespace {

constexpr std::string_view kQTableMagic = "#aerq";
constexpr std::string_view kQTableVersion = "v1";

// FNV-1a 64: tiny, dependency-free, and plenty to catch bit flips and
// truncation in a text checkpoint (this is integrity, not authentication).
std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void QTable::Write(std::ostream& os) const {
  std::vector<StateKey> keys;
  keys.reserve(table_.size());
  for (const auto& [key, entries] : table_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::ostringstream body;
  std::int64_t entry_count = 0;
  for (StateKey key : keys) {
    const auto it = table_.find(key);
    AER_CHECK(it != table_.end()) << "state key vanished during Write()";
    const auto& entries = it->second;
    for (int a = 0; a < kNumActions; ++a) {
      const Entry& e = entries[static_cast<std::size_t>(a)];
      if (e.visits == 0) continue;
      body << StrFormat("%016llx\t%s\t%.17g\t%lld\n",
                        static_cast<unsigned long long>(key),
                        std::string(ActionName(ActionFromIndex(a))).c_str(),
                        e.q, static_cast<long long>(e.visits));
      ++entry_count;
    }
  }
  const std::string payload = body.str();
  os << kQTableMagic << '\t' << kQTableVersion << '\t' << entry_count << '\t'
     << StrFormat("%016llx",
                  static_cast<unsigned long long>(Fnv1a64(payload)))
     << '\n'
     << payload;
}

QTable::ReadResult QTable::ReadChecked(std::istream& is, QTable& out) {
  out = QTable();
  const auto fail = [&out](std::string error) {
    out = QTable();
    return ReadResult{false, std::move(error)};
  };

  std::string line;
  if (!std::getline(is, line)) return fail("empty input: missing header");
  const auto header = Split(Trim(line), '\t');
  if (header.size() != 4 || header[0] != kQTableMagic) {
    return fail("missing '#aerq' header (legacy or foreign file?)");
  }
  if (header[1] != kQTableVersion) {
    return fail(StrFormat("unsupported format version '%s' (want %s)",
                          std::string(header[1]).c_str(),
                          std::string(kQTableVersion).c_str()));
  }
  const auto declared_count = ParseInt64(header[2]);
  const auto declared_checksum = ParseHexU64(header[3]);
  if (!declared_count.has_value() || *declared_count < 0 ||
      !declared_checksum.has_value()) {
    return fail("malformed header count/checksum fields");
  }

  std::ostringstream body;
  std::int64_t entry_count = 0;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    body << line << '\n';
    if (Trim(line).empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 4) {
      return fail(StrFormat("line %zu: expected 4 fields, got %zu", lineno,
                            fields.size()));
    }
    const auto key = ParseHexU64(fields[0]);
    const auto action = ParseAction(Trim(fields[1]));
    const auto q = ParseDouble(fields[2]);
    const auto visits = ParseInt64(fields[3]);
    if (!key.has_value() || !action.has_value() || !q.has_value() ||
        !visits.has_value() || *visits <= 0) {
      return fail(StrFormat("line %zu: malformed entry", lineno));
    }
    Entry& e = out.table_[*key][static_cast<std::size_t>(ActionIndex(*action))];
    if (e.visits != 0) {
      return fail(StrFormat("line %zu: duplicate (state, action)", lineno));
    }
    e.q = *q;
    e.visits = *visits;
    out.total_updates_ += *visits;
    ++entry_count;
  }

  if (entry_count != *declared_count) {
    return fail(StrFormat("entry count mismatch: header says %lld, body has "
                          "%lld (truncated file?)",
                          static_cast<long long>(*declared_count),
                          static_cast<long long>(entry_count)));
  }
  const std::uint64_t actual = Fnv1a64(body.str());
  if (actual != *declared_checksum) {
    return fail(StrFormat("checksum mismatch: header %016llx, body %016llx "
                          "(corrupted file?)",
                          static_cast<unsigned long long>(*declared_checksum),
                          static_cast<unsigned long long>(actual)));
  }
  return {};
}

bool QTable::Read(std::istream& is, QTable& out) {
  return ReadChecked(is, out).ok;
}

}  // namespace aer
