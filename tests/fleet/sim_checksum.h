// FNV-1a 64 fingerprint of a SimulationResult — the form in which the
// retired heap engine's reference outputs are pinned (fleet_equivalence_test,
// fleet_down_test). It folds everything the old byte-identity comparison
// checked: the paper-format serialization, every LogEntry field (symptom ids
// included, so intern order is pinned too), the ground truth, and the three
// result counters. Integers fold as 8 little-endian bytes, so the value is
// platform-independent.
#ifndef AER_TESTS_FLEET_SIM_CHECKSUM_H_
#define AER_TESTS_FLEET_SIM_CHECKSUM_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "fleet/fleet_sim.h"

namespace aer::fleet {

class Fnv1a64 {
 public:
  void Bytes(const std::string& bytes) {
    for (const char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Int(std::int64_t value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(bits >> (8 * i)));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t ResultChecksum(const SimulationResult& result) {
  Fnv1a64 h;
  std::ostringstream os;
  result.log.Write(os);
  h.Bytes(os.str());
  h.Int(static_cast<std::int64_t>(result.log.size()));
  for (const LogEntry& e : result.log.entries()) {
    h.Int(e.time);
    h.Int(e.machine);
    h.Int(static_cast<std::int64_t>(e.kind));
    h.Int(e.symptom);
    h.Int(static_cast<std::int64_t>(e.action));
  }
  h.Int(static_cast<std::int64_t>(result.ground_truth.size()));
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    h.Int(gt.machine);
    h.Int(gt.start);
    h.Int(gt.end);
    h.Int(gt.fault_index);
    h.Int(gt.noisy ? 1 : 0);
  }
  h.Int(result.fault_arrivals_skipped);
  h.Int(result.processes_completed);
  h.Int(result.total_downtime);
  return h.value();
}

}  // namespace aer::fleet

#endif  // AER_TESTS_FLEET_SIM_CHECKSUM_H_
