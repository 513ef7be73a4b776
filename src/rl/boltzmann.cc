#include "rl/boltzmann.h"

#include <array>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "log/action.h"

namespace aer {

double TemperatureSchedule::At(std::int64_t sweep) const {
  AER_CHECK_GE(sweep, 0);
  const double t = initial * std::pow(decay, static_cast<double>(sweep));
  return t < floor ? floor : t;
}

std::size_t SampleBoltzmann(std::span<const double> costs, double temperature,
                            Rng& rng) {
  AER_CHECK(!costs.empty());
  AER_CHECK_GT(temperature, 0.0);
  double min_cost = costs[0];
  for (double c : costs) min_cost = c < min_cost ? c : min_cost;
  // The weights live on the stack for up to one weight per action; a longer
  // span falls back to the heap.
  std::array<double, kNumActions> stack_weights = {};
  std::vector<double> heap_weights;
  if (costs.size() > stack_weights.size()) heap_weights.resize(costs.size());
  const std::span<double> weights =
      heap_weights.empty()
          ? std::span<double>(stack_weights).first(costs.size())
          : std::span<double>(heap_weights);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    weights[i] = std::exp(-(costs[i] - min_cost) / temperature);
  }
  return rng.NextWeighted(weights);
}

}  // namespace aer
