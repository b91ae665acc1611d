#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace canopus {

double Rng::exponential(double mean) {
  // Inverse-CDF sampling; clamp the uniform away from 0 to avoid log(0).
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0) return 0;
  if (mean < 32) {
    const double limit = std::exp(-mean);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  const double u1 = std::max(uniform(), 1e-12);
  const double u2 = uniform();
  const double gauss =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double v = mean + std::sqrt(mean) * gauss;
  return v < 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

}  // namespace canopus
