#include "fleet/trace.h"

#include <cstdlib>

#include "common/check.h"
#include "fleet/fleet_sim.h"

namespace aer {

TraceDataset GenerateTrace(const TraceConfig& config) {
  TraceDataset dataset;
  dataset.catalog = MakeDefaultCatalog(config.catalog);
  UserDefinedPolicy policy(config.escalation);
  dataset.result =
      fleet::FleetSimulator(fleet::FleetSimConfig{.sim = config.sim},
                            dataset.catalog)
          .Run(policy);
  return dataset;
}

bool IsKnownScale(std::string_view scale) {
  return scale == "small" || scale == "default" || scale == "large";
}

namespace {

void CheckScale(std::string_view scale) {
  AER_CHECK(IsKnownScale(scale))
      << "unknown scale \"" << scale
      << "\"; the scales are small, default and large";
}

}  // namespace

TraceConfig TraceConfigForScale(std::string_view scale) {
  CheckScale(scale);
  TraceConfig config;
  if (scale == "small") {
    config.sim.num_machines = 400;
    config.sim.duration = 90 * kDay;
  } else if (scale == "large") {
    config.sim.num_machines = 5000;
    config.sim.duration = 180 * kDay;
  }  // "default": 2000 machines, 180 days
  return config;
}

std::string ScaleFromEnv() {
  const char* env = std::getenv("AER_SCALE");
  std::string scale = env != nullptr ? env : "default";
  CheckScale(scale);
  return scale;
}

TraceConfig TraceConfigFromEnv() { return TraceConfigForScale(ScaleFromEnv()); }

}  // namespace aer
