// Zipf-like sampler over ranks 0..n-1 with exponent `s`: P(k) ∝ 1/(k+1)^s.
// No program draws from it; it lives beside the test oracles with the tests
// that pin its probability mass and sampling (common/rng_test.cc).
#ifndef AER_TESTS_SUPPORT_ZIPF_H_
#define AER_TESTS_SUPPORT_ZIPF_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace aer {

class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s);

  std::size_t Sample(Rng& rng) const;

  // Probability mass of rank k.
  double Pmf(std::size_t k) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // inclusive cumulative probabilities
};

}  // namespace aer

#endif  // AER_TESTS_SUPPORT_ZIPF_H_
