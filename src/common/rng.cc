#include "common/rng.h"

#include <cmath>

namespace aer {

double Rng::NextExponential(double mean) {
  AER_CHECK_GT(mean, 0.0);
  // 1 - NextDouble() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - NextDouble());
}

double Rng::NextGaussian() {
  const double u1 = 1.0 - NextDouble();  // (0, 1]
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::NextLogNormalWithMean(double mean, double sigma) {
  AER_CHECK_GT(mean, 0.0);
  AER_CHECK_GE(sigma, 0.0);
  // If X = exp(N(mu, sigma^2)) then E[X] = exp(mu + sigma^2/2); solve for mu
  // so the sample mean matches the requested mean.
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  return std::exp(mu + sigma * NextGaussian());
}

std::size_t Rng::NextWeighted(std::span<const double> weights) {
  AER_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    // Debug tier (hot path: one check per weight per draw); the always-on
    // total check below still rejects fully-degenerate inputs in release.
    AER_DCHECK_GE(w, 0.0);
    total += w;
  }
  AER_CHECK_GT(total, 0.0) << "weights must be non-negative with positive sum";
  double x = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fell off the end
}

}  // namespace aer
