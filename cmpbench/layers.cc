/**
 * @file
 * cmpbench_layers: the benchmark's outside-in probe of cmpcache.
 *
 * Every measurement here times calls into the library's public API
 * from the outside; nothing inside src/ is instrumented. run.py drives
 * it alongside the shipped `cmpcache` CLI:
 *
 *   gen    --refs=N --seed=S --out=PATH
 *          write the binary migratory-stress trace the stream workload
 *          serves (benchmark-side input generation)
 *   setup  --refs=N --seed=S  |  --trace=PATH KEY=VALUE...
 *          do exactly the CLI's set-up (parse, expand the paper grid
 *          and build + warm its first cell; or open the stream and
 *          build the machine), print "ready", exit without running
 *   replay --trace=PATH KEY=VALUE...
 *          batch replay of a stream file (warmup off); prints the same
 *          document `cmpcache serve --out` writes
 *   trace  --refs=N --seed=S --threads=T --results-out=PATH
 *   trace  --trace=PATH --results-out=PATH KEY=VALUE...
 *          the traced run: spans around each layer call, written as
 *          Chrome trace-event JSON (--chrome-out), per-layer metrics
 *          as one JSON line on stdout
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/cli.hh"
#include "common/json.hh"
#include "sim/config_io.hh"
#include "sim/invariants.hh"
#include "sim/result_json.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "trace/trace_io.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;

namespace
{

using Clock = std::chrono::steady_clock;

/** Share of the traced wall time that may go unattributed to any
 * layer before the traced run fails its accounting check. */
constexpr double kAccountingBound = 0.02;

/** Rounds of the stream's traced pass; its layer costs are medians
 * over them. */
constexpr int kStreamReps = 3;

std::string
quote(const std::string &s)
{
    std::string out(1, '"');
    out += jsonEscape(s);
    out += '"';
    return out;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One timed call into a layer. Parents and ids index the merged
 * span list. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int cell = -1;
    unsigned tid = 0;
};

/**
 * Spans of one thread, kept in memory. Spans nest strictly (a stack),
 * so a span's self time is its duration minus its direct children's.
 */
class SpanLog
{
  public:
    explicit SpanLog(unsigned tid) : tid_(tid) {}

    int
    open(std::string name, int cell,
         Clock::time_point start = Clock::now())
    {
        Span s;
        s.name = std::move(name);
        s.start = start;
        s.end = start;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.cell = cell;
        s.tid = tid_;
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id, Clock::time_point end = Clock::now())
    {
        if (stack_.empty() || stack_.back() != id)
            throw std::logic_error("span closed out of order");
        spans_[id].end = end;
        stack_.pop_back();
    }

    /** Time @p f as span @p name of @p cell; returns f's result. */
    template <class F>
    auto
    timed(const char *name, int cell, F &&f)
    {
        struct Closer
        {
            SpanLog &log;
            int id;
            ~Closer() { log.close(id); }
        } closer{*this, open(name, cell)};
        return f();
    }

    bool balanced() const { return stack_.empty(); }
    std::vector<Span> &spans() { return spans_; }

  private:
    unsigned tid_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** All spans of a traced run, merged, with per-name aggregates. */
class SpanSet
{
  public:
    void
    add(SpanLog &log)
    {
        if (!log.balanced())
            throw std::logic_error("a span was left open");
        const int base = static_cast<int>(spans_.size());
        for (Span s : log.spans()) {
            if (s.parent >= 0)
                s.parent += base;
            spans_.push_back(std::move(s));
        }
    }

    double
    dur(std::size_t i) const
    {
        return secondsBetween(spans_[i].start, spans_[i].end);
    }

    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = dur(i);
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent >= 0)
                self[spans_[i].parent] -= dur(i);
        return self;
    }

    /** Total duration of spans named @p name (of @p cell if >= 0). */
    double
    total(const std::string &name, int cell = -1) const
    {
        double t = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name
                && (cell < 0 || spans_[i].cell == cell))
                t += dur(i);
        return t;
    }

    double
    selfTotal(const std::string &name) const
    {
        const auto self = selfTimes();
        double t = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                t += self[i];
        return t;
    }

    std::size_t
    count(const std::string &name, int cell) const
    {
        std::size_t n = 0;
        for (const auto &s : spans_)
            n += s.name == name && s.cell == cell;
        return n;
    }

    /** Fail loudly unless every cell in [0, cells) has exactly one
     * span of each name in @p names. */
    void
    requireEach(const std::vector<std::string> &names, int cells) const
    {
        for (int c = 0; c < cells; ++c)
            for (const auto &n : names)
                if (count(n, c) != 1)
                    throw std::runtime_error(cstr(
                        "traced run: cell ", c, " has ", count(n, c),
                        " '", n, "' spans (expected 1)"));
    }

    /**
     * Seconds of @p wall_thread_s (traced wall time x threads) not
     * covered by any layer's self time. Layers are the span names with
     * a module prefix ("trace.", "sim.", ...); structural spans
     * ("pass", "cell", "untraced") are not layers.
     */
    double
    unattributed(double wall_thread_s) const
    {
        const auto self = selfTimes();
        double layers = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name.find('.') != std::string::npos)
                layers += self[i];
        return wall_thread_s - layers;
    }

    void
    writeChrome(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os)
            throw std::runtime_error("cannot write " + path);
        Clock::time_point epoch = Clock::now();
        for (const auto &s : spans_)
            epoch = std::min(epoch, s.start);
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto us = [&](Clock::time_point t) {
                return std::chrono::duration<double, std::micro>(
                           t - epoch)
                    .count();
            };
            os << (i ? ",\n" : "") << "{\"name\": "
               << quote(s.name) << ", \"cat\": \""
               << s.name.substr(0, s.name.find('.'))
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
               << ", \"ts\": " << jsonDouble(us(s.start))
               << ", \"dur\": " << jsonDouble(us(s.end) - us(s.start))
               << ", \"args\": {\"id\": " << i
               << ", \"parent\": " << s.parent
               << ", \"cell\": " << s.cell << "}}";
        }
        os << "\n]}\n";
    }

  private:
    std::vector<Span> spans_;
};

/** Per-layer metric lines: name -> (value, unit), in insert order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!names_.insert(name).second)
            throw std::logic_error("metric set twice: " + name);
        items_.push_back({name, value, unit});
    }

    void
    write(std::ostream &os) const
    {
        os << "{";
        for (std::size_t i = 0; i < items_.size(); ++i)
            os << (i ? ", " : "") << quote(items_[i].name)
               << ": {\"value\": " << jsonDouble(items_[i].value)
               << ", \"unit\": " << quote(items_[i].unit) << "}";
        os << "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
    std::set<std::string> names_;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "cmpbench_layers: " << msg << "\n";
    std::exit(1);
}

/** The paper grid exactly as `cmpcache sweep` builds it by default
 * (warmup on, outstanding 6). */
SweepSpec
paperGrid(const CliArgs &args)
{
    SweepSpec spec;
    spec.workloads = {"TP", "CPW2", "NotesBench", "Trade2"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Wbht,
                     WbPolicy::Snarf, WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread =
        static_cast<std::uint64_t>(args.getInt("refs", 20000));
    spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    return spec;
}

/** The stream workload's config: serve's defaults plus the
 * positional KEY=VALUE overrides run.py passes to both. */
SystemConfig
streamConfig(const CliArgs &args)
{
    SystemConfig cfg;
    cfg.obs.ingestGauges = true; // serve's default
    for (const auto &pos : args.positional()) {
        const auto eq = pos.find('=');
        if (eq == std::string::npos)
            die("expected KEY=VALUE, got '" + pos + "'");
        const auto applied = applyConfigOption(
            cfg, pos.substr(0, eq), pos.substr(eq + 1));
        if (!applied.ok())
            die(applied.error().message);
    }
    cfg.validate();
    return cfg;
}

std::unique_ptr<std::istream>
openTrace(const std::string &path)
{
    auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*f)
        die("cannot open trace '" + path + "'");
    return f;
}

/** The document `cmpcache serve --out` writes for @p sim. */
std::string
serveDocument(Simulation &sim, const ExperimentResult &r)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"cmpcache-serve-result-v1\",\n"
       << "  \"result\":\n";
    writeResultJson(os, r, 2);
    if (sim.sampled()) {
        os << ",\n  \"timeSeries\":\n";
        writeSampleSeriesJson(os, sim.samples(), 2);
    }
    os << "\n}\n";
    return os.str();
}

int
genMain(const CliArgs &args)
{
    const auto params = workloads::stressByName(
        "migratory",
        static_cast<std::uint64_t>(args.getInt("refs", 60000)),
        static_cast<std::uint64_t>(args.getInt("seed", 1)));
    const auto records = SyntheticWorkload(params).materialize();
    const auto written = writeTraceFile(args.getString("out", ""),
                                        records, TraceFormat::Binary);
    if (!written.ok())
        die(written.error().message);
    std::cout << records.size() << "\n";
    return 0;
}

int
setupMain(const CliArgs &args)
{
    std::unique_ptr<Simulation> sim;
    if (args.has("trace")) {
        const std::string path = args.getString("trace", "");
        sim = std::make_unique<Simulation>(streamConfig(args),
                                           openTrace(path), path);
    } else {
        const auto jobs = paperGrid(args).expand();
        sim = std::make_unique<Simulation>(jobs.front().config,
                                           jobs.front().params);
    }
    std::cout << "ready" << std::endl;
    return 0;
}

int
replayMain(const CliArgs &args)
{
    const std::string path = args.getString("trace", "");
    SystemConfig cfg = streamConfig(args);
    cfg.warmupPass = false;
    auto records = readTraceFile(path);
    if (!records.ok())
        die(records.error().message);
    Simulation sim(cfg, splitByThread(*records, cfg.numThreads()),
                   path);
    std::cout << serveDocument(sim, sim.run());
    return 0;
}

/** Counts summed over the cells of one traced run. */
struct Counts
{
    std::uint64_t refs = 0;
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2WbRequests = 0;
    std::uint64_t l3Retries = 0;
    std::uint64_t busRetries = 0;
    std::uint64_t memReads = 0;
    std::uint64_t wbhtAborted = 0;
    double l3LoadHitPctSum = 0.0;
    unsigned cells = 0;
    double wbhtCorrectPctSum = 0.0;
    unsigned wbhtCells = 0;
    double snarfPctSum = 0.0;
    double snarfLocalPctSum = 0.0;
    unsigned snarfCells = 0;

    void
    add(CmpSystem &sys, const ExperimentResult &r, WbPolicy policy)
    {
        events += sys.totalExecuted();
        cycles += r.execTime;
        l2Accesses += sys.totalL2Accesses();
        l2Hits += sys.totalL2Hits();
        l2WbRequests += r.l2WbRequests;
        l3Retries += r.l3Retries;
        busRetries += r.busRetries;
        memReads += r.memReads;
        wbhtAborted += r.wbAborted;
        l3LoadHitPctSum += r.l3LoadHitRatePct;
        ++cells;
        if (policy == WbPolicy::Wbht || policy == WbPolicy::Combined) {
            wbhtCorrectPctSum += r.wbhtCorrectPct;
            ++wbhtCells;
        }
        if (policy == WbPolicy::Snarf || policy == WbPolicy::Combined) {
            snarfPctSum += r.wbSnarfedPct;
            snarfLocalPctSum += r.snarfedUsedLocallyPct;
            ++snarfCells;
        }
    }

    Counts &
    operator+=(const Counts &o)
    {
        refs += o.refs;
        events += o.events;
        cycles += o.cycles;
        l2Accesses += o.l2Accesses;
        l2Hits += o.l2Hits;
        l2WbRequests += o.l2WbRequests;
        l3Retries += o.l3Retries;
        busRetries += o.busRetries;
        memReads += o.memReads;
        wbhtAborted += o.wbhtAborted;
        l3LoadHitPctSum += o.l3LoadHitPctSum;
        cells += o.cells;
        wbhtCorrectPctSum += o.wbhtCorrectPctSum;
        wbhtCells += o.wbhtCells;
        snarfPctSum += o.snarfPctSum;
        snarfLocalPctSum += o.snarfLocalPctSum;
        snarfCells += o.snarfCells;
        return *this;
    }

    void
    write(Metrics &m) const
    {
        const auto ratio = [](double a, double b) {
            return b > 0.0 ? a / b : 0.0;
        };
        m.set("sim.events", double(events), "count");
        m.set("sim.events_per_ref", ratio(events, refs), "events/ref");
        m.set("sim.cycles", double(cycles), "cycles");
        m.set("l2.accesses", double(l2Accesses), "count");
        m.set("l2.hit_rate", ratio(l2Hits, l2Accesses), "ratio");
        m.set("l2.wb_requests", double(l2WbRequests), "count");
        m.set("l3.retries", double(l3Retries), "count");
        m.set("l3.load_hit_rate", ratio(l3LoadHitPctSum, cells) / 100.0,
              "ratio");
        m.set("l3.retry_per_wb", ratio(l3Retries, l2WbRequests),
              "ratio");
        m.set("ring.bus_retries", double(busRetries), "count");
        m.set("memctrl.reads", double(memReads), "count");
        m.set("core.wbht_aborted", double(wbhtAborted), "count");
        m.set("core.wbht_correct_pct",
              ratio(wbhtCorrectPctSum, wbhtCells), "%");
        m.set("core.snarf_pct", ratio(snarfPctSum, snarfCells), "%");
        m.set("core.snarf_used_locally_pct",
              ratio(snarfLocalPctSum, snarfCells), "%");
    }
};

/** Records each job's wall time and worker from inside runSweep. */
class TimingObserver : public SweepObserver
{
  public:
    void
    jobFinished(const SweepJob &, const SweepJobResult &r, unsigned,
                unsigned, double) override
    {
        busy += r.wallSeconds;
        slowest = std::max(slowest, r.wallSeconds);
    }

    double busy = 0.0;
    double slowest = 0.0;
};

std::string
sweepJson(const SweepSpec &spec, const std::vector<SweepJobResult> &r)
{
    std::ostringstream os;
    writeSweepResultsJson(os, spec, r);
    return os.str();
}

/**
 * Traced run of the paper grid. Three passes over the same cells:
 * runSweep untraced (the sweep layer and the untraced wall time), a
 * serial synthesis drain (the trace layer), and the layer pass that
 * repeats Simulation's steps one public call at a time on a pool of
 * the same width, one span per call.
 */
int
traceGrid(const CliArgs &args, Metrics &m)
{
    const SweepSpec spec = paperGrid(args);
    const auto threads =
        static_cast<unsigned>(std::max<std::int64_t>(
            1, args.getInt("threads", 1)));
    const std::vector<SweepJob> jobs = spec.expand();
    const int cells = static_cast<int>(jobs.size());
    const unsigned pool =
        std::min<unsigned>(threads, static_cast<unsigned>(cells));

    // Sweep layer, untraced.
    TimingObserver observer;
    const auto u0 = Clock::now();
    const auto untraced = runSweep(spec, threads, &observer);
    const double untracedWall = secondsBetween(u0, Clock::now());
    for (const auto &r : untraced)
        if (!r.ok)
            die("untraced sweep cell failed: " + r.error);

    SpanSet set;

    // Trace layer: build and drain one bundle per cell.
    SpanLog synthLog(0);
    std::uint64_t refs = 0;
    {
        const int pass = synthLog.open("pass", -1);
        for (int c = 0; c < cells; ++c) {
            const int id = synthLog.open("trace.synth", c);
            const SyntheticWorkload synth(jobs[c].params);
            TraceBundle bundle = synthLog.timed(
                "trace.make_bundle", c, [&] { return synth.makeBundle(); });
            TraceRecord rec;
            for (auto &src : bundle.perThread)
                while (src->next(rec))
                    ++refs;
            synthLog.close(id);
        }
        synthLog.close(pass);
    }
    set.add(synthLog);

    // Layer pass.
    std::vector<SpanLog> logs;
    for (unsigned t = 0; t < pool; ++t)
        logs.emplace_back(t + 1);
    std::vector<SweepJobResult> traced(jobs.size());
    std::vector<Counts> counts(pool);
    std::atomic<int> next{0};
    std::mutex errMutex;
    std::string error;
    const auto l0 = Clock::now();
    std::vector<int> workerSpan(pool);
    for (unsigned t = 0; t < pool; ++t)
        workerSpan[t] = logs[t].open("sweep.worker", -1, l0);
    const auto worker = [&](unsigned t) {
        SpanLog &log = logs[t];
        for (int c; (c = next.fetch_add(1)) < cells;) {
            const SweepJob &job = jobs[c];
            const int cell = log.open("cell", c);
            try {
                SystemConfig cfg = job.config;
                cfg.l2.lineSize = job.params.lineSize;
                cfg.l3.lineSize = job.params.lineSize;
                const SyntheticWorkload synth(job.params);
                auto sys = log.timed("sim.build", c, [&] {
                    auto bundle = log.timed("trace.make_bundle", c, [&] {
                        return synth.makeBundle();
                    });
                    return std::make_unique<CmpSystem>(cfg,
                                                       std::move(bundle));
                });
                if (cfg.warmupPass) {
                    log.timed("sim.warmup", c, [&] {
                        auto bundle =
                            log.timed("trace.make_bundle", c, [&] {
                                return synth.makeBundle();
                            });
                        sys->functionalWarmup(std::move(bundle));
                    });
                }
                const Tick finish =
                    log.timed("sim.run", c, [&] { return sys->run(); });
                log.timed("sim.collect", c, [&] {
                    SweepJobResult &r = traced[c];
                    r.result = collectResult(*sys, finish, job.workload);
                    r.eventsExecuted = sys->totalExecuted();
                    return resultToJson(r.result).size();
                });
                counts[t].add(*sys, traced[c].result, job.policy);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errMutex);
                error = cstr(job.label(), ": ", e.what());
            }
            log.close(cell);
        }
    };
    std::vector<std::thread> workers;
    for (unsigned t = 1; t < pool; ++t)
        workers.emplace_back(worker, t);
    worker(0);
    for (auto &w : workers)
        w.join();
    const auto l1 = Clock::now();
    for (unsigned t = 0; t < pool; ++t) {
        logs[t].close(workerSpan[t], l1);
        set.add(logs[t]);
    }
    if (!error.empty())
        die("traced cell failed: " + error);
    const double tracedWall = secondsBetween(l0, l1);

    set.requireEach({"trace.synth", "cell", "sim.build", "sim.warmup",
                     "sim.run", "sim.collect"},
                    cells);
    const double unattributed =
        set.unattributed(pool * tracedWall + set.total("pass"));

    // Identity: the layer pass must reproduce runSweep byte for byte.
    const std::string untracedJson = sweepJson(spec, untraced);
    if (sweepJson(spec, traced) != untracedJson)
        die("traced grid results differ from runSweep's");
    const std::string resultsOut = args.getString("results-out", "");
    if (!resultsOut.empty()) {
        std::ofstream os(resultsOut);
        os << untracedJson;
        if (!os)
            die("cannot write " + resultsOut);
    }
    set.writeChrome(args.getString("chrome-out", ""));

    Counts sum;
    for (const auto &c : counts)
        sum += c;
    sum.refs = refs;

    const double synth = set.total("trace.synth");
    const double synthDrain = set.selfTotal("trace.synth");
    const double run = set.total("sim.run");
    const double runSelf = run - synthDrain;
    m.set("trace.synth_s", synth, "s");
    m.set("trace.synth_ns_per_ref", refs ? 1e9 * synth / refs : 0.0,
          "ns/ref");
    m.set("trace.make_bundle_s", set.selfTotal("trace.make_bundle"),
          "s");
    m.set("trace.decode_s", 0.0, "s");
    m.set("trace.ingest_producer_waits", 0.0, "count");
    m.set("trace.ingest_dropped", 0.0, "count");
    m.set("sim.build_s", set.selfTotal("sim.build"), "s");
    m.set("sim.warmup_s", set.selfTotal("sim.warmup"), "s");
    m.set("sim.run_s", run, "s");
    m.set("sim.run_self_s", runSelf, "s");
    m.set("sim.ns_per_event",
          sum.events ? 1e9 * runSelf / sum.events : 0.0, "ns");
    m.set("sim.collect_s", set.total("sim.collect"), "s");
    m.set("sweep.makespan_s", untracedWall, "s");
    m.set("sweep.busy_frac",
          observer.busy / (double(pool) * untracedWall), "ratio");
    m.set("sweep.slowest_cell_s", observer.slowest, "s");
    m.set("sweep.worker_wait_s", set.selfTotal("sweep.worker"), "s");
    m.set("check.oracle_s", 0.0, "s");
    m.set("check.invariants_s", 0.0, "s");
    m.set("check.coherence_call_s", 0.0, "s");
    m.set("obs.samples", 0.0, "count");
    m.set("obs.sampler_s", 0.0, "s");
    sum.write(m);
    m.set("bench.traced_wall_s", tracedWall, "s");
    m.set("bench.untraced_wall_s", untracedWall, "s");
    m.set("bench.trace_overhead_s", tracedWall - untracedWall, "s");
    m.set("bench.unattributed_frac",
          unattributed / (pool * tracedWall + set.total("pass")),
          "ratio");
    m.set("bench.cells", cells, "count");
    return 0;
}

/** One streamed Simulation, as serve runs it, timed per layer. */
struct StreamCell
{
    std::string document;
    std::unique_ptr<Simulation> sim;
};

StreamCell
streamCell(SpanLog &log, int c, const SystemConfig &cfg,
           const std::string &path)
{
    StreamCell out;
    const int cell = log.open("cell", c);
    out.sim = log.timed("sim.build", c, [&] {
        return std::make_unique<Simulation>(cfg, openTrace(path), path);
    });
    const ExperimentResult &r =
        log.timed("sim.run", c, [&]() -> const ExperimentResult & {
            return out.sim->run();
        });
    out.document = log.timed("sim.collect", c,
                             [&] { return serveDocument(*out.sim, r); });
    log.close(cell);
    return out;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Traced run of the coherence stream. Decode the file, then,
 * kStreamReps times: run it as serve does with no layer spans (the
 * untraced reference, left out of the traced wall time), traced with
 * every check on (cell 4r), and traced with one of the oracle, the
 * invariant sweeps and the sampler off (cells 4r+1 .. 4r+3; the
 * paired difference is that layer's cost). run.py compares the
 * result with a batch replay.
 */
int
traceStream(const CliArgs &args, Metrics &m)
{
    const std::string path = args.getString("trace", "");
    const SystemConfig cfg = streamConfig(args);
    SystemConfig noOracle = cfg;
    noOracle.check.oracle = false;
    SystemConfig noSweeps = cfg;
    noSweeps.check.invariantsEvery = 0;
    SystemConfig noSampler = cfg;
    noSampler.obs.sampleEvery = 0;

    SpanLog log(0);
    const int pass = log.open("pass", -1);
    auto records = log.timed("trace.decode", -1,
                             [&] { return readTraceFile(path); });
    if (!records.ok())
        die(records.error().message);

    StreamCell full;
    std::vector<double> untraced;
    for (int rep = 0; rep < kStreamReps; ++rep) {
        const int id = log.open("untraced", -1);
        {
            Simulation sim(cfg, openTrace(path), path);
            serveDocument(sim, sim.run());
        }
        log.close(id);
        untraced.push_back(secondsBetween(log.spans()[id].start,
                                          log.spans()[id].end));
        StreamCell cell = streamCell(log, 4 * rep, cfg, path);
        if (rep == 0)
            full = std::move(cell);
        else if (cell.document != full.document)
            die("stream result differs between runs");
        streamCell(log, 4 * rep + 1, noOracle, path);
        streamCell(log, 4 * rep + 2, noSweeps, path);
        streamCell(log, 4 * rep + 3, noSampler, path);
    }
    CoherenceCheckOptions quiesced;
    quiesced.quiesced = true;
    const CoherenceCheck chk = log.timed("check.coherence", -1, [&] {
        return checkCoherence(full.sim->system(), quiesced);
    });
    if (!chk.clean())
        die("coherence check failed:\n" + chk.report());

    log.close(pass);

    SpanSet set;
    set.add(log);
    set.requireEach({"cell", "sim.build", "sim.run", "sim.collect"},
                    4 * kStreamReps);
    const double tracedWall = set.total("pass") - set.total("untraced");
    const double unattributed = set.unattributed(tracedWall);
    const std::string resultsOut = args.getString("results-out", "");
    if (!resultsOut.empty()) {
        std::ofstream os(resultsOut);
        os << full.document;
        if (!os)
            die("cannot write " + resultsOut);
    }
    set.writeChrome(args.getString("chrome-out", ""));

    Simulation &sim = *full.sim;
    const StreamIngest *ingest = sim.ingest();
    if (ingest->recordsIngested() != records->size())
        die(cstr("ingested ", ingest->recordsIngested(), " of ",
                 records->size(), " records"));
    Counts counts;
    counts.refs = records->size();
    counts.add(sim.system(), sim.run(), cfg.policy.policy);

    // Per variant v, the median over the rounds of span @p name's duration,
    // or of the full run's minus variant v's.
    const auto med = [&](const char *name, int v) {
        std::vector<double> xs;
        for (int rep = 0; rep < kStreamReps; ++rep)
            xs.push_back(set.total(name, 4 * rep + v));
        return median(xs);
    };
    const auto cost = [&](int v) {
        std::vector<double> xs;
        for (int rep = 0; rep < kStreamReps; ++rep)
            xs.push_back(set.total("sim.run", 4 * rep)
                         - set.total("sim.run", 4 * rep + v));
        return median(xs);
    };
    const double run = med("sim.run", 0);
    m.set("trace.synth_s", 0.0, "s");
    m.set("trace.synth_ns_per_ref", 0.0, "ns/ref");
    m.set("trace.make_bundle_s", 0.0, "s");
    m.set("trace.decode_s", set.total("trace.decode"), "s");
    m.set("trace.ingest_producer_waits",
          double(ingest->producerBlockedWaits()), "count");
    m.set("trace.ingest_dropped", double(ingest->recordsDropped()),
          "count");
    m.set("sim.build_s", med("sim.build", 0), "s");
    m.set("sim.warmup_s", 0.0, "s");
    m.set("sim.run_s", run, "s");
    m.set("sim.run_self_s", run, "s");
    m.set("sim.ns_per_event",
          counts.events ? 1e9 * run / counts.events : 0.0, "ns");
    m.set("sim.collect_s", med("sim.collect", 0), "s");
    m.set("sweep.makespan_s", 0.0, "s");
    m.set("sweep.busy_frac", 0.0, "ratio");
    m.set("sweep.slowest_cell_s", 0.0, "s");
    m.set("sweep.worker_wait_s", 0.0, "s");
    m.set("check.oracle_s", cost(1), "s");
    m.set("check.invariants_s", cost(2), "s");
    m.set("check.coherence_call_s", set.total("check.coherence"), "s");
    m.set("obs.samples", double(sim.samples().numSamples()), "count");
    m.set("obs.sampler_s", cost(3), "s");
    counts.write(m);
    m.set("bench.traced_wall_s", med("cell", 0), "s");
    m.set("bench.untraced_wall_s", median(untraced), "s");
    m.set("bench.trace_overhead_s", med("cell", 0) - median(untraced),
          "s");
    m.set("bench.unattributed_frac", unattributed / tracedWall, "ratio");
    m.set("bench.cells", 4 * kStreamReps, "count");
    return 0;
}

int
traceMain(const CliArgs &args)
{
    Metrics m;
    const int rc = args.has("trace") ? traceStream(args, m)
                                     : traceGrid(args, m);
    m.set("bench.accounting_bound", kAccountingBound, "ratio");
    std::ostringstream os;
    m.write(os);
    std::cout << os.str() << "\n";
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, /*allow_subcommand=*/true);
    const std::string &cmd = args.subcommand();
    try {
        if (cmd == "gen")
            return genMain(args);
        if (cmd == "setup")
            return setupMain(args);
        if (cmd == "replay")
            return replayMain(args);
        if (cmd == "trace")
            return traceMain(args);
    } catch (const std::exception &e) {
        die(e.what());
    }
    die("usage: cmpbench_layers gen|setup|replay|trace [options]");
}
