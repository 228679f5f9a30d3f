#include "sim/cmp_system.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace cmpcache
{

void
WbReuseTracker::observe(const BusRequest &req, const CombinedResult &res)
{
    if (res.resp == CombinedResp::Retry)
        return;
    const Addr line = req.lineAddr;
    if (isWriteBack(req.cmd)) {
        ++totalWb_;
        pendingTotal_.insert(line);
        if (res.resp == CombinedResp::WbAcceptL3) {
            ++acceptedWb_;
            pendingAccepted_.insert(line);
        }
        return;
    }
    if (req.cmd == BusCmd::Read || req.cmd == BusCmd::ReadExcl) {
        if (pendingTotal_.erase(line))
            ++reusedTotal_;
        if (pendingAccepted_.erase(line))
            ++reusedAccepted_;
    }
}

double
WbReuseTracker::reusedTotalPct()
const
{
    return totalWb_ ? 100.0 * static_cast<double>(reusedTotal_)
                          / static_cast<double>(totalWb_)
                    : 0.0;
}

double
WbReuseTracker::reusedAcceptedPct() const
{
    return acceptedWb_ ? 100.0 * static_cast<double>(reusedAccepted_)
                             / static_cast<double>(acceptedWb_)
                       : 0.0;
}

namespace
{

/** Validate the whole config, then build its machine shape. */
CmpTopology
makeTopology(const SystemConfig &cfg)
{
    cfg.validate();
    auto t = CmpTopology::build(cfg.topology);
    cmp_assert(t.ok(),
               "topology passed validate() but failed to build");
    return *t;
}

} // namespace

CmpSystem::CmpSystem(const SystemConfig &cfg, TraceBundle traces)
    : stats::Group("system"), cfg_(cfg), topo_(makeTopology(cfg))
{
    cmp_assert(traces.numThreads() == topo_.numThreads(),
               "trace bundle has ", traces.numThreads(),
               " threads, system wants ", topo_.numThreads());

    // Fold the topology's per-level sizing overrides in once, so every
    // component below sees the effective cache parameters.
    cfg_.l2 = cfg_.effectiveL2();
    cfg_.l3 = cfg_.effectiveL3();

    retryMonitor_ =
        std::make_unique<RetryMonitor>(this, cfg_.policy.retry);
    retryMonitor_->setTimeSource([this] { return eq_.curTick(); });

    // Only built when a plan is configured: fault-free runs carry no
    // "fault" stats group, keeping their output byte-identical.
    if (cfg_.fault.enabled()) {
        auto plan = parseFaultPlan(cfg_.fault.plan);
        cmp_assert(plan.ok(), "fault plan passed validate() but "
                   "failed to parse");
        plan->seed = cfg_.fault.seed;
        faults_ = std::make_unique<FaultInjector>(this, *plan);
        faults_->setTimeSource([this] { return eq_.curTick(); });
    }

    ring_ = std::make_unique<Ring>(this, eq_, cfg_.ring, topo_);
    ring_->setRetryMonitor(retryMonitor_.get());
    ring_->setFaultInjector(faults_.get());
    // Agent ids and ring stops come from the topology; nothing here
    // computes placement arithmetic.
    const AgentId l3_id = topo_.l3Agent();
    const AgentId mem_id = topo_.memAgent();

    l3_ = std::make_unique<L3Cache>(this, eq_, l3_id,
                                    topo_.stopOfAgent(l3_id), cfg_.l3);
    mem_ = std::make_unique<MemCtrl>(this, eq_, mem_id,
                                     topo_.stopOfAgent(mem_id),
                                     cfg_.mem);
    l3_->setMemWriteFn([this] { mem_->writeFromL3(); });

    // Conformance oracle (check.oracle): built before the L2s so
    // every component can be wired to it as it is constructed.
    if (cfg_.check.oracle) {
        oracle_ = std::make_unique<VersionOracle>(l3_id);
        oracle_->setSnapshotFn(
            [this] { return conformanceSnapshot(); });
        ring_->setConformance(oracle_.get());
        l3_->setConformance(oracle_.get());
    }

    for (unsigned i = 0; i < topo_.numL2s(); ++i) {
        const AgentId id = topo_.l2Agent(i);
        auto l2 = std::make_unique<L2Cache>(
            this, eq_, cstr("l2_", i), id,
            topo_.stopOfAgent(id), cfg_.l2, cfg_.policy, *ring_,
            retryMonitor_.get());
        l2->setL3Peek(
            [this](Addr a) { return l3_->hasLineValid(a); });
        l2->setCompletionCallback([this](ThreadId tid) {
            cpus_.at(tid)->onMissComplete();
        });
        l2->setFaultInjector(faults_.get());
        l2->setConformance(oracle_.get());
        ring_->attach(l2.get(), Ring::Role::L2);
        l2s_.push_back(std::move(l2));
    }
    ring_->attach(l3_.get(), Ring::Role::L3);
    ring_->attach(mem_.get(), Ring::Role::Memory);

    if (cfg_.enableWbReuseTracker) {
        reuseTracker_ = std::make_unique<WbReuseTracker>();
        ring_->setObserver(
            [this](const BusRequest &req, const CombinedResult &res) {
                reuseTracker_->observe(req, res);
            });
    }

    CpuParams cpu_params = cfg_.cpu;
    cpu_params.arrival = cfg_.arrival.model;
    for (unsigned t = 0; t < topo_.numThreads(); ++t) {
        const unsigned cluster = topo_.l2OfThread(t);
        L2Cache &l2 = *l2s_[cluster];
        auto src = std::move(traces.perThread[t]);
        if (cfg_.arrival.model == ArrivalModel::Open) {
            // Open loop: the generator stamps interarrival times; the
            // trace's own gaps are replaced by sampled ones.
            src = std::make_unique<ArrivalStamper>(
                std::move(src), cfg_.arrival,
                static_cast<ThreadId>(t));
        }
        cpus_.push_back(std::make_unique<TraceCpu>(
            this, eq_, cstr("cpu_", t),
            static_cast<ThreadId>(t), cpu_params, l2,
            std::move(src)));
    }
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::functionalWarmup(TraceBundle traces)
{
    cmp_assert(traces.numThreads() == topo_.numThreads(),
               "warmup bundle has the wrong thread count");
    cmp_assert(eq_.curTick() == 0 && totalPending() == 0,
               "warmup must precede the timed run");

    TagArray &l3tags = l3_->tags();
    bool any = true;
    TraceRecord r;
    while (any) {
        any = false;
        for (unsigned t = 0; t < topo_.numThreads(); ++t) {
            if (!traces.perThread[t]->next(r))
                continue;
            any = true;
            L2Cache &l2 = *l2s_[topo_.l2OfThread(t)];
            TagArray &tags = l2.tags();
            const Addr line = tags.lineAlign(r.addr);
            const bool store = r.op == MemOp::Store;

            if (TagEntry *e = tags.lookup(line)) {
                if (store)
                    e->state = LineState::Modified;
                continue;
            }
            // Adaptive tables reach steady state alongside the
            // caches: every L2 observes misses (snarf use bits) the
            // way it would on the snooped address ring.
            for (auto &peer : l2s_) {
                if (auto *st = peer->snarfTable())
                    st->recordMiss(line);
            }

            TagEntry *victim = tags.findVictim(line);
            if (victim->valid()) {
                // Victim migrates to the L3 (clean and dirty alike,
                // as in the baseline policy).
                const Addr va = victim->lineAddr;
                const bool vdirty = isDirty(victim->state);
                bool l3_had_line = false;
                if (TagEntry *l3e = l3tags.lookup(va)) {
                    l3_had_line = true;
                    if (vdirty)
                        l3e->state = LineState::Modified;
                } else {
                    TagEntry *l3v = l3tags.findVictim(va);
                    l3tags.insert(l3v, va,
                                  vdirty ? LineState::Modified
                                         : LineState::Shared);
                }
                for (auto &peer : l2s_) {
                    if (auto *st = peer->snarfTable())
                        st->recordWriteBack(va);
                }
                if (!vdirty && l3_had_line) {
                    // The combined response would have reported
                    // "valid in L3": allocate WBHT entries (locally,
                    // or in every table under global allocation).
                    if (cfg_.policy.globalWbhtAllocation()) {
                        for (auto &peer : l2s_) {
                            if (auto *w = peer->wbht())
                                w->recordL3Valid(va);
                        }
                    } else if (auto *w = l2.wbht()) {
                        w->recordL3Valid(va);
                    }
                }
            }
            tags.insert(victim, line,
                        store ? LineState::Modified
                              : LineState::Exclusive);
            // Demand fetch hitting the L3 leaves the copy in place
            // (read) or claims it (store).
            if (TagEntry *l3e = l3tags.lookup(line)) {
                if (store)
                    l3tags.invalidate(l3e);
            }
        }
    }

    // Warmup installs per-L2 without invalidating peers, so a line
    // can end up writable in several L2s at once -- a state no
    // running machine produces. Remember those lines so the
    // structural invariant checker can skip them (the oracle taints
    // them the same way below).
    {
        // Sized for every L2 line at once, so it never rehashes.
        std::size_t lines = 0;
        for (auto &l2 : l2s_)
            lines += std::size_t{l2->tags().numSets()} * l2->tags().assoc();
        FlatMap<unsigned> seeded(2 * lines);
        for (auto &l2 : l2s_) {
            l2->tags().forEach([&](const TagEntry &e) {
                if (e.valid())
                    ++seeded[e.lineAddr];
            });
        }
        seeded.forEach([&](Addr line, unsigned count) {
            if (count >= 2)
                warmupApprox_.insert(line);
        });
    }

    // Hand the warmed cache contents to the conformance oracle as
    // version-0 seeds. Warmup installs per-L2 without invalidating
    // peers (a known approximation), so lines it left in several L2s
    // are tainted -- exempt from validation -- at seal time.
    if (oracle_) {
        for (unsigned i = 0; i < topo_.numL2s(); ++i) {
            const AgentId id = topo_.l2Agent(i);
            l2s_[i]->tags().forEach([&](const TagEntry &e) {
                if (e.valid())
                    oracle_->onSeedCopy(id, e.lineAddr,
                                        isDirty(e.state));
            });
        }
        const AgentId l3_id = topo_.l3Agent();
        l3tags.forEach([&](const TagEntry &e) {
            if (e.valid())
                oracle_->onSeedCopy(l3_id, e.lineAddr,
                                    isDirty(e.state));
        });
        oracle_->sealSeeding();
    }
}

std::string
CmpSystem::conformanceSnapshot()
{
    std::ostringstream os;
    os << "machine state: tick=" << eq_.curTick()
       << " events=" << totalExecuted()
       << " ring_pending=" << ring_->pendingRequests();
    for (unsigned i = 0; i < topo_.numL2s(); ++i) {
        L2Cache &l2 = *l2s_[i];
        os << " l2_" << i << "{wbq=" << l2.writeBackQueue().size()
           << " mshr=" << l2.mshrFile().inUse()
           << " snarfs=" << l2.pendingSnarfCount() << "}";
    }
    unsigned done = 0;
    for (const auto &cpu : cpus_)
        done += cpu->done();
    os << " cpus_done=" << done << "/" << cpus_.size();
    return os.str();
}

Tick
CmpSystem::run()
{
    for (auto &cpu : cpus_)
        cpu->startup();
    eq_.run(cfg_.maxTicks);

    if (!finished()) {
        throw SimException(SimError(
            SimErrorKind::Budget,
            cstr("simulation hit the ", cfg_.maxTicks,
                 "-tick safety limit before the traces drained (",
                 totalPending(), " events pending); likely a "
                 "deadlock or an undersized maxTicks")));
    }

    // The oracle throws recorded violations at serial points; end of
    // run is the last one.
    if (oracle_)
        oracle_->throwIfViolated();

    Tick finish = 0;
    for (const auto &cpu : cpus_)
        finish = std::max(finish, cpu->finishTick());
    return finish;
}

std::size_t
CmpSystem::totalPending() const
{
    return eq_.numPending();
}

std::uint64_t
CmpSystem::totalExecuted() const
{
    return eq_.numExecuted();
}

bool
CmpSystem::finished() const
{
    return std::all_of(cpus_.begin(), cpus_.end(),
                       [](const auto &c) { return c->done(); });
}

std::vector<std::string>
CmpSystem::defaultProbePaths() const
{
    std::vector<std::string> paths = {
        "ring.pending_now",
        "ring.retry_responses",
        "ring.requests",
        "retry_monitor.retries_seen",
        "retry_monitor.window_retries_now",
        "retry_monitor.last_window_retries",
        "retry_monitor.windows_elapsed",
        "retry_monitor.wbht_active_now",
        "retry_monitor.gate_transitions",
        "l3.incoming_queue_busy_now",
        "l3.retries_issued",
        "mem.outstanding_reads_now",
        "mem.reads",
    };
    for (unsigned i = 0; i < numL2s(); ++i) {
        const std::string l2 = cstr("l2_", i, ".");
        paths.push_back(l2 + "wbq_depth_now");
        paths.push_back(l2 + "mshr_occupancy_now");
        paths.push_back(l2 + "wbht_gate_now");
        paths.push_back(l2 + "wb_issued");
        paths.push_back(l2 + "wb_aborted_by_wbht");
        paths.push_back(l2 + "wb_snarfed_out");
        paths.push_back(l2 + "snarfed_received");
        paths.push_back(l2 + "snarfed_dropped");
    }
    if (faults_) {
        paths.push_back("fault.windows_active_now");
        paths.push_back("fault.forced_l3_retries");
        paths.push_back("fault.nacks");
        paths.push_back("fault.delayed_launches");
        paths.push_back("fault.snarf_suppressed");
    }
    return paths;
}

std::uint64_t
CmpSystem::totalL2WbIssued() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->wbIssued();
    return n;
}

std::uint64_t
CmpSystem::totalL2Accesses() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->demandAccesses();
    return n;
}

std::uint64_t
CmpSystem::totalL2Hits() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->demandHits();
    return n;
}

double
CmpSystem::l2HitRate() const
{
    const auto a = totalL2Accesses();
    return a ? static_cast<double>(totalL2Hits())
                   / static_cast<double>(a)
             : 0.0;
}

std::uint64_t
CmpSystem::totalSnarfedReceived() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->snarfedReceived();
    return n;
}

std::uint64_t
CmpSystem::totalSnarfLocalUse() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->snarfedUsedLocally();
    return n;
}

std::uint64_t
CmpSystem::totalSnarfInterventionUse() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->snarfedUsedForIntervention();
    return n;
}

std::uint64_t
CmpSystem::totalWbSnarfedOut() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->wbSnarfedOutCount();
    return n;
}

double
CmpSystem::wbhtCorrectFraction() const
{
    std::uint64_t correct = 0;
    std::uint64_t total = 0;
    for (const auto &l2 : l2s_) {
        if (const auto *w = l2->wbht()) {
            correct += w->correct();
            total += w->decisions();
        }
    }
    return total ? static_cast<double>(correct)
                       / static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
CmpSystem::offChipAccesses() const
{
    // The L3 data arrays and memory are both off chip.
    return l3_->supplies() + mem_->reads();
}

} // namespace cmpcache
