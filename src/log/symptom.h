// Symptom identifiers and name interning.
//
// A symptom is an error event description as emitted by event monitoring
// (Table 1: "error:IFM-ISNWatchdog", "errorHardware:EventLog", ...). The
// pipeline works with dense integer ids; the SymptomTable maps ids to the
// original description strings for log round-tripping and reports.
#ifndef AER_LOG_SYMPTOM_H_
#define AER_LOG_SYMPTOM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace aer {

using SymptomId = std::int32_t;
inline constexpr SymptomId kInvalidSymptom = -1;

// Bidirectional symptom-name intern table. Ids are dense and assigned in
// first-seen order, which keeps them stable for a given log file.
class SymptomTable {
 public:
  // Returns the id for `name`, interning it if new.
  SymptomId Intern(std::string_view name);

  // Returns the id for `name` or kInvalidSymptom if never interned.
  SymptomId Find(std::string_view name) const;

  const std::string& Name(SymptomId id) const;

  std::size_t size() const { return names_.size(); }

 private:
  // Transparent, so Intern and Find look up a string_view without
  // building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, SymptomId, NameHash, std::equal_to<>> ids_;
};

}  // namespace aer

#endif  // AER_LOG_SYMPTOM_H_
