#include "support/zipf.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aer {

ZipfDistribution::ZipfDistribution(std::size_t n, double s) {
  AER_CHECK_GT(n, 0u);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfDistribution::Pmf(std::size_t k) const {
  AER_CHECK_LT(k, cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace aer
