/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * The simulator never consumes randomness on its own: all stochastic
 * behaviour lives in the trace generators, so two runs with the same
 * seed and configuration are bit-identical.
 */

#ifndef CMPCACHE_COMMON_RANDOM_HH
#define CMPCACHE_COMMON_RANDOM_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace cmpcache
{

/**
 * xoshiro256** generator seeded via splitmix64. Fast, high quality,
 * and fully deterministic across platforms.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t inRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double real();

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p);

    /** Geometric-ish integer with given mean (>= 0). */
    std::uint64_t geometric(double mean);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf(s) sampler over {0, ..., n-1} using an inverted-CDF table.
 *
 * Rank 0 is the hottest item. Used by the commercial-workload
 * generators to shape reuse distributions.
 *
 * The CDF is laid out in Eytzinger (BFS heap) order and searched with
 * a branchless descent: trace generation performs one such search per
 * reference across three samplers, and the sorted-array binary search
 * it replaces mispredicted on nearly every probe. The inversion is
 * exact -- identical double comparisons against identical CDF values
 * -- so sampled ranks are bit-identical to std::lower_bound on the
 * sorted table.
 *
 * The table is immutable once built and held by a shared_ptr, so a
 * copied sampler shares it: a workload builds each distribution once
 * and hands copies to all of its threads.
 */
class ZipfSampler
{
  public:
    /**
     * @param n        population size (> 0)
     * @param exponent Zipf exponent s (>= 0; 0 = uniform)
     */
    ZipfSampler(std::size_t n, double exponent);

    /** Draw one rank using randomness from @p rng. */
    std::size_t sample(Rng &rng) const { return sampleAt(rng.real()); }

    /**
     * Rank for the uniform draw @p u in [0, 1): the first rank whose
     * CDF value is >= u (the last rank if u exceeds them all).
     * Exposed so equivalence tests can drive exact u values.
     */
    std::size_t sampleAt(double u) const;

    std::size_t population() const { return n_; }
    double exponent() const { return exponent_; }

  private:
    std::size_t n_;
    /**
     * CDF values in Eytzinger order, 1-indexed (slot 0 unused),
     * padded with +infinity sentinels to a complete tree so a
     * descent's virtual-leaf offset is directly the sampled rank.
     * Shared, read-only, by every copy of this sampler.
     */
    std::shared_ptr<const std::vector<double>> eyt_;
    double exponent_;
};

} // namespace cmpcache

#endif // CMPCACHE_COMMON_RANDOM_HH
