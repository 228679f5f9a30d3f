/**
 * @file
 * Workload consolidation study: the CMP motivation scenario in which
 * different commercial workloads share one chip. Each L2's four
 * hardware threads run one workload; the cross-workload interference
 * (shared ring, shared L3, shared memory) and the adaptive policies'
 * behaviour under heterogeneity fall out of the simulation.
 *
 * Run:  ./examples/consolidation [--refs=N]
 *           [--mix=TP,Trade2,CPW2,NotesBench]
 */

#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

namespace
{

std::vector<std::string>
splitMix(const std::string &mix)
{
    std::vector<std::string> out;
    std::istringstream is(mix);
    std::string part;
    while (std::getline(is, part, ','))
        out.push_back(part);
    return out;
}

/** Bundle where L2 group g's threads run workload groups[g]. */
TraceBundle
mixedBundle(const std::vector<SyntheticWorkload> &groups,
            const SystemConfig &cfg)
{
    TraceBundle bundle;
    for (unsigned t = 0; t < cfg.numThreads(); ++t) {
        const auto &group = groups[t / cfg.threadsPerL2()];
        bundle.perThread.push_back(
            group.makeSource(static_cast<ThreadId>(t)));
    }
    return bundle;
}

struct RunOut
{
    /** Finish tick per L2 group (each group runs one workload). */
    std::vector<Tick> groupFinish;
    std::uint64_t retries;
    double l3Hit;
};

RunOut
run(const std::vector<std::string> &names, std::uint64_t refs,
    const PolicyConfig &policy)
{
    SystemConfig cfg;
    cfg.policy = policy;
    cfg.policy.retry.windowCycles = 250000;
    cfg.policy.retry.threshold = 100;
    cfg.cpu.maxOutstanding = 6;

    std::vector<SyntheticWorkload> groups;
    for (const auto &name : names)
        groups.emplace_back(workloads::byName(name, refs, 1));
    CmpSystem sys(cfg, mixedBundle(groups, cfg));
    sys.functionalWarmup(mixedBundle(groups, cfg));
    sys.run();

    RunOut out;
    out.groupFinish.assign(cfg.numL2s(), 0);
    for (unsigned t = 0; t < sys.numCpus(); ++t) {
        auto &slot = out.groupFinish[t / cfg.threadsPerL2()];
        slot = std::max(slot, sys.cpu(t).finishTick());
    }
    out.retries = sys.l3().retriesIssued();
    out.l3Hit = 100.0 * sys.l3().loadHitRate();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const auto refs =
        static_cast<std::uint64_t>(args.getInt("refs", 20000));
    const auto mix = splitMix(
        args.getString("mix", "TP,Trade2,CPW2,NotesBench"));
    if (mix.size() != 4)
        cmp_fatal("--mix needs exactly four workload names");

    std::cout << "Consolidation study: one workload per L2 ("
              << refs << " refs/thread)\n"
              << "  L2_0=" << mix[0] << " L2_1=" << mix[1]
              << " L2_2=" << mix[2] << " L2_3=" << mix[3] << "\n\n";

    // Per-workload finish times: the interesting consolidation metric
    // is how each co-runner fares, not the global maximum (the
    // longest-think-time workload always finishes last).
    std::cout << std::left << std::setw(12) << "policy";
    for (const auto &name : mix)
        std::cout << std::right << std::setw(13) << name;
    std::cout << std::setw(12) << "L3retries" << std::setw(9)
              << "L3hit%" << "\n";

    const auto base = run(mix, refs,
                          PolicyConfig::make(WbPolicy::Baseline));
    for (const auto p :
         {WbPolicy::Baseline, WbPolicy::Wbht, WbPolicy::Snarf,
          WbPolicy::Combined}) {
        const auto pc = p == WbPolicy::Combined
                            ? PolicyConfig::combinedDefault()
                            : PolicyConfig::make(p);
        const auto r =
            p == WbPolicy::Baseline ? base : run(mix, refs, pc);
        std::cout << std::fixed << std::left << std::setw(12)
                  << toString(p);
        for (unsigned g = 0; g < r.groupFinish.size(); ++g) {
            if (p == WbPolicy::Baseline) {
                std::cout << std::right << std::setw(13)
                          << r.groupFinish[g];
            } else {
                const double imp =
                    100.0
                    * (static_cast<double>(base.groupFinish[g])
                       - static_cast<double>(r.groupFinish[g]))
                    / static_cast<double>(base.groupFinish[g]);
                std::cout << std::right << std::setw(12) << std::fixed
                          << std::setprecision(2) << imp << "%";
            }
        }
        std::cout << std::setw(12) << r.retries << std::setw(9)
                  << std::setprecision(1) << r.l3Hit << "\n";
    }
    std::cout << "\n(baseline row: absolute cycles per workload; "
                 "policy rows: % improvement)\n";
    return 0;
}
