#include "common/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace cmpcache
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    cmp_assert(bound > 0, "Rng::below bound must be positive");
    // Lemire's unbiased multiply-shift rejection sampling ("Fast
    // Random Integer Generation in an Interval", ACM TOMACS 2019):
    // map a 64-bit draw onto [0, bound) via the high half of a
    // 128-bit product, rejecting the draws that would make some
    // residues appear one extra time. The rejection branch is taken
    // with probability < bound / 2^64, so it is essentially free for
    // the small bounds the simulator uses.
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            m = static_cast<unsigned __int128>(next()) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::inRange(std::uint64_t lo, std::uint64_t hi)
{
    cmp_assert(lo <= hi, "Rng::inRange requires lo <= hi");
    return lo + below(hi - lo + 1);
}

double
Rng::real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return real() < p;
}

std::uint64_t
Rng::geometric(double mean)
{
    if (mean <= 0.0)
        return 0;
    const double u = std::max(real(), 1e-12);
    const double v = -std::log(u) * mean;
    return static_cast<std::uint64_t>(v);
}

namespace
{

/**
 * Recursively place the sorted (padded) CDF into Eytzinger order: an
 * in-order walk of the implicit tree rooted at slot @p k visits
 * sorted ranks in ascending order.
 */
void
eytzingerize(const std::vector<double> &sorted, std::size_t &next,
             std::size_t k, std::vector<double> &eyt)
{
    if (k > sorted.size())
        return;
    eytzingerize(sorted, next, 2 * k, eyt);
    eyt[k] = sorted[next];
    ++next;
    eytzingerize(sorted, next, 2 * k + 1, eyt);
}

} // namespace

ZipfSampler::ZipfSampler(std::size_t n, double exponent)
    : n_(n), exponent_(exponent)
{
    cmp_assert(n > 0, "ZipfSampler population must be positive");
    // Pad to a complete tree (2^h - 1 slots) with +infinity
    // sentinels. Descents then always run to a virtual leaf and the
    // leaf index *is* the lower-bound rank, so no slot->rank table
    // (and no extra dependent load per draw) is needed. Sentinel
    // comparisons always descend left, leaving real results
    // untouched; draws landing in the padding clamp to the last rank,
    // matching the old it == end() fallback.
    const std::size_t slots = std::bit_ceil(n + 1) - 1;
    std::vector<double> cdf(slots,
                            std::numeric_limits<double>::infinity());

    // Exact CDF construction, arithmetic unchanged from the original
    // sorted-table sampler (the values must stay bit-identical).
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
        cdf[i] = acc;
    }
    for (std::size_t i = 0; i < n; ++i)
        cdf[i] /= acc;

    auto eyt = std::make_shared<std::vector<double>>(slots + 1, 0.0);
    std::size_t next = 0;
    eytzingerize(cdf, next, 1, *eyt);
    eyt_ = std::move(eyt);
}

std::size_t
ZipfSampler::sampleAt(double u) const
{
    // Branchless lower_bound over the Eytzinger tree: descend right
    // when the node's CDF value is < u (the same comparison the
    // sorted-array lower_bound performs, on the same doubles).
    //
    // The descent is a chain of data-dependent loads, so without help
    // it runs at memory latency per level -- slower on big cold
    // tables than a branchy binary search, whose speculated branches
    // overlap future loads. Prefetching the great-great-grandchildren
    // (16 descendants = two cache lines) restores the memory-level
    // parallelism explicitly; the top levels are shared by every draw
    // and stay cache-hot, and the last four levels skip the prefetch
    // via a perfectly predicted branch.
    const double *eyt = eyt_->data();
    const std::size_t slots = eyt_->size() - 1;
    std::size_t k = 1;
    while (k <= slots) {
        const std::size_t pf = k << 4;
        if (pf <= slots) {
            __builtin_prefetch(&eyt[pf]);
            __builtin_prefetch(&eyt[std::min(pf + 8, slots)]);
        }
        k = 2 * k + (eyt[k] < u);
    }
    // The tree is complete, so the virtual leaf offset is the
    // lower-bound rank; padding hits clamp to the last real rank.
    const std::size_t idx = k - (slots + 1);
    return idx < n_ ? idx : n_ - 1;
}

} // namespace cmpcache
