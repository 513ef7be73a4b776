#include "fleet/trace.h"

#include <cstdlib>

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

TraceConfig TraceConfigForScale(std::string_view scale) {
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

TraceConfig TraceConfigFromEnv() {
  const char* scale = std::getenv("AER_SCALE");
  return TraceConfigForScale(scale != nullptr ? scale : "default");
}

}  // namespace aer
