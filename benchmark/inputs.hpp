// benchmark/inputs.hpp — the benchmark's own input generator.
//
// Kept apart from src/tamp/kv/workload.hpp on purpose: the inputs of a
// benchmark run must depend only on its --seed, never on a later edit to
// the library under test.  Two key distributions over [0, n):
//
//   * uniform — every key equally likely;
//   * zipfian — Gray et al., "Quickly Generating Billion-Record Synthetic
//     Databases" (SIGMOD '94) §3.2, the constant-time generator YCSB
//     uses: rank 0 is the hottest key and rank r is drawn with
//     probability proportional to 1 / (r + 1)^theta.

#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace kvbench {

/// splitmix64 finalizer: a bijective 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// splitmix64 stream: one per thread, seeded from (--seed, stream id).
class Rng {
  public:
    Rng(std::uint64_t seed, std::uint64_t stream)
        : state_(mix64(seed ^ mix64(stream + 0x632BE59BD9B4E019ull))) {}

    std::uint64_t next() {
        state_ += 0x9E3779B97F4A7C15ull;
        return mix64(state_);
    }
    /// Uniform in [0, n), n > 0 (multiply-high, no modulo bias to speak of).
    std::uint64_t below(std::uint64_t n) {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }
    /// Uniform in [0, 1) from 53 random bits.
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

class Zipfian {
  public:
    Zipfian(std::uint64_t n, double theta)
        : n_(n),
          alpha_(1.0 / (1.0 - theta)),
          first_two_(1.0 + std::pow(0.5, theta)),
          zeta_n_(zeta(n, theta)),
          eta_((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta(2, theta) / zeta_n_)) {
        if (n < 2 || !(theta > 0.0 && theta < 1.0)) {
            throw std::invalid_argument("zipfian needs n >= 2, 0 < theta < 1");
        }
    }

    std::uint64_t next(Rng& rng) const {
        const double u = rng.unit();
        const double uz = u * zeta_n_;
        if (uz < 1.0) return 0;
        if (uz < first_two_) return 1;
        const auto r = static_cast<std::uint64_t>(
            static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r < n_ ? r : n_ - 1;
    }

  private:
    static double zeta(std::uint64_t n, double theta) {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i) {
            sum += std::pow(static_cast<double>(i), -theta);
        }
        return sum;
    }

    std::uint64_t n_;
    double alpha_;
    double first_two_;  // weight of ranks 0 and 1: 1 + 2^-theta
    double zeta_n_;
    double eta_;
};

/// Draws keys from [0, n): zipfian with theta 0.99 (the YCSB default), or
/// uniform.
class KeyPicker {
  public:
    KeyPicker(std::uint64_t n, bool zipfian) : n_(n) {
        if (zipfian) zipf_.emplace(n, 0.99);
    }

    std::uint64_t next(Rng& rng) const {
        return zipf_ ? zipf_->next(rng) : rng.below(n_);
    }

  private:
    std::uint64_t n_;
    std::optional<Zipfian> zipf_;
};

}  // namespace kvbench
