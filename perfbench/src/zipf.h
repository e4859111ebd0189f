#ifndef CWDB_PERFBENCH_ZIPF_H_
#define CWDB_PERFBENCH_ZIPF_H_

#include <cmath>
#include <cstdint>

namespace perfbench {

/// splitmix64: the benchmark's own seeded generator, so its inputs do not
/// change when the engine's Random does.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipfian ranks in [0, n) with skew theta (Gray et al., "Quickly
/// generating billion-record synthetic databases", the generator YCSB
/// uses): rank r is drawn with probability proportional to 1 / (r+1)^theta.
/// The distribution is immutable after construction (O(n) to build), so
/// client threads share one and each draws with its own SplitMix64.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta2 = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
      if (i == 2) zeta2 = zetan_;
    }
    if (n < 2) zeta2 = zetan_;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  uint64_t Sample(SplitMix64* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const uint64_t r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  /// Normalizer: probability of rank r is 1 / ((r+1)^theta * zetan()).
  double zetan() const { return zetan_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  double half_pow_theta_ = 0.0;
};

}  // namespace perfbench

#endif  // CWDB_PERFBENCH_ZIPF_H_
