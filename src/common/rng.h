// Deterministic pseudo-random number generation for data generators and
// experiment harnesses.
//
// We use xoshiro256** (Blackman & Vigna) seeded via splitmix64 so that every
// dataset and experiment in this repository is reproducible from a single
// 64-bit seed, independent of the standard library implementation.

#ifndef CCR_COMMON_RNG_H_
#define CCR_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ccr {

/// \brief Seeded, implementation-independent PRNG (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams on all platforms.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  /// Precondition: bound > 0.
  uint64_t Below(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t Range(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Returns true with probability p (clamped to [0,1]).
  bool Chance(double p);

  /// Fisher–Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Below(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Picks a uniformly random element. Precondition: !items.empty().
  template <typename T>
  const T& PickFrom(const std::vector<T>& items) {
    return items[static_cast<size_t>(Below(items.size()))];
  }

  /// Forks an independent stream (for per-entity generators).
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace ccr

#endif  // CCR_COMMON_RNG_H_
