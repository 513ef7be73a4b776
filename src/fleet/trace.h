// One-call generation of a complete synthetic recovery-log dataset: build
// the default fault catalog, run the cluster simulation under the
// user-defined policy, return the log plus ground truth. This is the
// stand-in for "collect half a year of logs from the production cluster".
#ifndef AER_FLEET_TRACE_H_
#define AER_FLEET_TRACE_H_

#include <string>
#include <string_view>

#include "cluster/fault_catalog.h"
#include "cluster/sim_types.h"
#include "cluster/user_policy.h"

namespace aer {

struct TraceConfig {
  CatalogConfig catalog;
  ClusterSimConfig sim;
  EscalationConfig escalation;
};

struct TraceDataset {
  FaultCatalog catalog;
  SimulationResult result;
};

// Runs FleetSimulator::Run with no pool: deterministic for a given config.
TraceDataset GenerateTrace(const TraceConfig& config = {});

// Scales the simulated fleet/time: "small" for unit tests (~2k processes),
// "default" for benches (~18k), "large" for overnight runs (~45k). Any other
// scale CHECK-fails, naming these three.
TraceConfig TraceConfigForScale(std::string_view scale);

// True for exactly the scales TraceConfigForScale accepts, so a caller can
// reject an unknown one instead of CHECK-failing on it.
bool IsKnownScale(std::string_view scale);

// AER_SCALE from the environment, "default" if unset; an unknown value
// CHECK-fails, so a record is never labelled with a scale it did not run.
std::string ScaleFromEnv();

// TraceConfigForScale(ScaleFromEnv()).
TraceConfig TraceConfigFromEnv();

}  // namespace aer

#endif  // AER_FLEET_TRACE_H_
