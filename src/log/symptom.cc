#include "log/symptom.h"

#include "common/check.h"

namespace aer {

SymptomId SymptomTable::Intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const SymptomId id = static_cast<SymptomId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

SymptomId SymptomTable::Find(std::string_view name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidSymptom : it->second;
}

const std::string& SymptomTable::Name(SymptomId id) const {
  AER_CHECK_GE(id, 0) << "invalid symptom id";
  AER_CHECK_LT(static_cast<std::size_t>(id), names_.size())
      << "symptom id not interned in this table";
  return names_[static_cast<std::size_t>(id)];
}

}  // namespace aer
