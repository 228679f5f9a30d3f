#include "trace/workload.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

WorkloadThreadSource::WorkloadThreadSource(
    const SyntheticWorkload &workload, ThreadId tid)
    : params_(workload.params_),
      tid_(tid),
      rng_(params_.seed * 0x9e3779b97f4a7c15ull + tid + 1),
      privateSampler_(workload.privateSampler_),
      sharedSampler_(workload.sharedSampler_),
      kernelSampler_(workload.kernelSampler_)
{
    cmp_assert(tid < params_.numThreads, "tid out of range");
}

Addr
WorkloadThreadSource::lineToAddr(Addr region_base,
                                 std::uint64_t line) const
{
    return region_base + line * params_.lineSize;
}

bool
WorkloadThreadSource::next(TraceRecord &rec)
{
    if (produced_ >= params_.recordsPerThread)
        return false;

    // Phase behaviour: periodically slide the private hot set so that
    // previously hot lines go cold (get evicted) and later come back.
    if (params_.phaseLength > 0 && produced_ > 0
        && produced_ % params_.phaseLength == 0) {
        const auto shift = static_cast<std::uint64_t>(
            static_cast<double>(params_.privateLines)
            * params_.phaseShift);
        // Rotate the hot zone *within* the fixed private footprint so
        // previously-hot lines go cold (eviction), then come back
        // (reuse after eviction, not pure streaming) -- without
        // growing the total working set.
        phaseBase_ = (phaseBase_ + shift)
                     % std::max<std::uint64_t>(params_.privateLines, 1);
    }

    rec.tid = tid_;
    rec.gap = static_cast<std::uint32_t>(
        rng_.geometric(params_.gapMean));

    const double region_draw = rng_.real();
    double edge = params_.kernelFrac;
    if (region_draw < edge) {
        // Kernel region: shared by all threads, instruction-heavy.
        const std::uint64_t line = kernelSampler_.sample(rng_);
        rec.addr = lineToAddr(region::KernelBase, line);
        rec.op = rng_.chance(0.7) ? MemOp::IFetch
                                  : (rng_.chance(params_.storeFrac * 0.3)
                                         ? MemOp::Store
                                         : MemOp::Load);
        ++produced_;
        return true;
    }
    edge += params_.sharedFrac;
    if (region_draw < edge) {
        const std::uint64_t line = sharedSampler_.sample(rng_);
        rec.addr = lineToAddr(region::SharedBase, line);
        const double sf = params_.sharedStoreFrac >= 0.0
                              ? params_.sharedStoreFrac
                              : params_.storeFrac;
        rec.op = rng_.chance(sf) ? MemOp::Store : MemOp::Load;
        ++produced_;
        return true;
    }
    edge += params_.streamFrac;
    if (region_draw < edge) {
        const Addr base =
            region::StreamBase + tid_ * region::PerThreadSpan;
        const std::uint64_t line = streamCursor_++;
        rec.addr = lineToAddr(
            base, line % std::max<std::uint64_t>(params_.streamLines, 1));
        rec.op = rng_.chance(params_.storeFrac) ? MemOp::Store
                                                : MemOp::Load;
        ++produced_;
        return true;
    }

    // Private hot region (per thread or per thread-group), shifted by
    // the current phase.
    const unsigned group =
        tid_ / std::max(params_.privateGroupSize, 1u);
    const Addr base = region::PrivateBase + group * region::PerThreadSpan;
    const std::uint64_t line =
        (phaseBase_ + privateSampler_.sample(rng_))
        % std::max<std::uint64_t>(params_.privateLines, 1);
    rec.addr = lineToAddr(base, line);
    rec.op = rng_.chance(params_.storeFrac) ? MemOp::Store : MemOp::Load;
    ++produced_;
    return true;
}

SyntheticWorkload::SyntheticWorkload(WorkloadParams params)
    : params_(std::move(params)),
      privateSampler_(std::max<std::uint64_t>(params_.privateLines, 1),
                      params_.privateZipf),
      sharedSampler_(std::max<std::uint64_t>(params_.sharedLines, 1),
                     params_.sharedZipf),
      kernelSampler_(std::max<std::uint64_t>(params_.kernelLines, 1),
                     0.5)
{
    cmp_assert(isPowerOf2(params_.lineSize), "line size must be 2^k");
}

std::unique_ptr<WorkloadThreadSource>
SyntheticWorkload::makeSource(ThreadId tid) const
{
    // The constructor is private to keep this the only way in, so
    // std::make_unique cannot reach it.
    return std::unique_ptr<WorkloadThreadSource>(
        new WorkloadThreadSource(*this, tid));
}

TraceBundle
SyntheticWorkload::makeBundle() const
{
    TraceBundle bundle;
    bundle.perThread.reserve(params_.numThreads);
    for (unsigned t = 0; t < params_.numThreads; ++t)
        bundle.perThread.push_back(makeSource(static_cast<ThreadId>(t)));
    return bundle;
}

std::vector<TraceRecord>
SyntheticWorkload::materialize() const
{
    auto bundle = makeBundle();
    std::vector<TraceRecord> out;
    out.reserve(params_.numThreads * params_.recordsPerThread);
    bool any = true;
    while (any) {
        any = false;
        for (auto &src : bundle.perThread) {
            TraceRecord r;
            if (src->next(r)) {
                out.push_back(r);
                any = true;
            }
        }
    }
    return out;
}

} // namespace cmpcache
