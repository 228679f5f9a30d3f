/**
 * @file
 * Allocation budgets, checked by replacing global operator new/delete
 * with counting versions:
 *  - the steady-state per-reference path is allocation-free: a full
 *    CmpSystem is warmed up past every pool/table growth phase, and a
 *    multi-thousand-tick simulation slice must then execute without a
 *    single heap allocation;
 *  - synthetic workload set-up builds each Zipf table once: every
 *    per-thread source of every bundle shares the workload's tables.
 *
 * This binary must NOT be linked into the sanitizer suite: ASan
 * interposes operator new itself. (The test carries only the plain
 * "unit" ctest label for that reason.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/cmp_system.hh"
#include "trace/workload.hh"
#include "trace/workloads_commercial.hh"

namespace
{

bool g_counting = false;
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;

void *
countedAlloc(std::size_t n)
{
    if (g_counting) {
        ++g_allocs;
        g_bytes += n;
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Replacing these four replaces every usual new-expression; the
// aligned and nothrow forms fall back to them in libstdc++, and the
// simulator never uses over-aligned types on the hot path anyway.
void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace cmpcache;

namespace
{

/**
 * A small but complete machine under enough load to keep every
 * mechanism busy: tiny caches so fills, evictions, write backs,
 * snarfs and retries all flow continuously.
 */
SystemConfig
stressConfig()
{
    SystemConfig cfg;
    cfg.topology = TopologyParams::flat(2, 2);
    cfg.l2.sizeBytes = 2048;
    cfg.l2.assoc = 2;
    cfg.l3.sizeBytes = 8192;
    cfg.l3.assoc = 2;
    cfg.cpu.maxOutstanding = 4;
    return cfg;
}

TraceBundle
syntheticBundle(unsigned threads, std::uint64_t refs_per_thread)
{
    Rng rng(20260806);
    TraceBundle b;
    for (unsigned t = 0; t < threads; ++t) {
        std::vector<TraceRecord> recs;
        recs.reserve(refs_per_thread);
        for (std::uint64_t i = 0; i < refs_per_thread; ++i) {
            TraceRecord r;
            // 64 KB working set: far larger than the L2s, revisited
            // fully during warmup so no table sees a new key later.
            r.addr = rng.below(512) * 128;
            r.gap = static_cast<std::uint32_t>(rng.below(4));
            r.tid = static_cast<ThreadId>(t);
            r.op = rng.below(3) == 0 ? MemOp::Store : MemOp::Load;
            recs.push_back(r);
        }
        b.perThread.push_back(
            std::make_unique<VectorSource>(std::move(recs)));
    }
    return b;
}

} // namespace

TEST(AllocFree, SteadyStateSliceAllocatesNothing)
{
    auto cfg = stressConfig();
    CmpSystem sys(cfg, syntheticBundle(cfg.numThreads(), 30000));
    for (unsigned t = 0; t < sys.numCpus(); ++t)
        sys.cpu(t).startup();

    // Warm up: long enough that every pool, MSHR list, pending table,
    // scratch buffer and wheel bucket has hit its steady-state high
    // water mark.
    const Tick warm = 200000;
    sys.eventq().run(warm);
    ASSERT_FALSE(sys.finished())
        << "warmup consumed the whole trace; grow refs_per_thread";

    // The measured slice: thousands of references end to end.
    g_allocs = 0;
    g_counting = true;
    sys.eventq().run(warm + 50000);
    g_counting = false;

    EXPECT_FALSE(sys.finished());
    EXPECT_EQ(g_allocs, 0u)
        << "the steady-state per-reference path heap-allocated";

    // Sanity-check the counter actually counts.
    g_counting = true;
    auto *probe = new std::uint64_t(1);
    g_counting = false;
    EXPECT_EQ(g_allocs, 1u);
    delete probe;

    // Drain to completion so the run stays a valid simulation.
    sys.eventq().run();
    EXPECT_TRUE(sys.finished());
}

namespace
{

/** Bytes of one padded Eytzinger table over @p lines ranks. */
std::uint64_t
tableBytes(std::uint64_t lines)
{
    return std::bit_ceil(std::max<std::uint64_t>(lines, 1) + 1)
           * sizeof(double);
}

} // namespace

TEST(AllocFree, TwoBundlesShareOneSetOfZipfTables)
{
    // A 16-thread TP workload and the two bundles of one simulation
    // (timed run and warmup pass) must allocate about three tables'
    // worth, not one set per source (96 tables).
    const auto params = workloads::tp(1000, 1);
    ASSERT_EQ(params.numThreads, 16u);
    const std::uint64_t tables = tableBytes(params.privateLines)
                                 + tableBytes(params.sharedLines)
                                 + tableBytes(params.kernelLines);

    g_bytes = 0;
    g_counting = true;
    const SyntheticWorkload wl(params);
    const std::uint64_t build_bytes = g_bytes;
    g_bytes = 0;
    {
        auto run = wl.makeBundle();
        auto warmup = wl.makeBundle();
        EXPECT_EQ(run.numThreads(), 16u);
        EXPECT_EQ(warmup.numThreads(), 16u);
    }
    const std::uint64_t bundle_bytes = g_bytes;
    g_counting = false;

    // Each table is built once, beside one sorted scratch copy.
    EXPECT_LE(build_bytes, 2 * tables + 4096)
        << "tables: " << tables << " bytes";
    EXPECT_GE(build_bytes, tables);
    // The 32 sources copy parameters and RNG state, not tables.
    EXPECT_LT(bundle_bytes, tables / 8)
        << "tables: " << tables << " bytes";
}
