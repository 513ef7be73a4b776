#include "eval/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace aer {

BootstrapInterval BootstrapRatioCI(
    std::span<const std::pair<double, double>> pairs, int resamples,
    double confidence, std::uint64_t seed, ThreadPool* pool) {
  AER_CHECK_GT(resamples, 0);
  AER_CHECK_GT(confidence, 0.0);
  AER_CHECK_LT(confidence, 1.0);

  BootstrapInterval interval;
  interval.resamples = resamples;
  interval.confidence = confidence;
  if (pairs.empty()) return interval;

  double num = 0.0;
  double den = 0.0;
  for (const auto& [n, d] : pairs) {
    num += n;
    den += d;
  }
  interval.point = den > 0 ? num / den : 0.0;

  // Each resample draws from its own derived stream, so ratios[r] is a pure
  // function of (seed, r) — identical whether the loop below runs serially
  // or fanned out over the pool.
  std::vector<double> ratios(static_cast<std::size_t>(resamples));
  const auto one_resample = [&](std::size_t r) {
    Rng rng(DeriveStream(seed, static_cast<std::uint64_t>(r)));
    double rn = 0.0;
    double rd = 0.0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& [n, d] = pairs[rng.NextBounded(pairs.size())];
      rn += n;
      rd += d;
    }
    ratios[r] = rd > 0 ? rn / rd : 0.0;
  };
  ParallelFor(pool, ratios.size(), one_resample);

  std::sort(ratios.begin(), ratios.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(ratios.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, ratios.size() - 1);
    const double frac = pos - std::floor(pos);
    return ratios[lo] * (1.0 - frac) + ratios[hi] * frac;
  };
  interval.low = at(alpha);
  interval.high = at(1.0 - alpha);
  return interval;
}

}  // namespace aer
