#!/usr/bin/env python3
"""The cmpcache benchmark: one command, two workloads, checked outputs.

    python3 cmpbench/run.py --workload grid-parallel --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run builds the shipped
`cmpcache` CLI and the `cmpbench_layers` probe from source into
.bench_build/cmpbench (Release); later runs reuse the build. With
--trace 0 it drives `cmpcache sweep` / `cmpcache serve` repeatedly for
--seconds and reports the end-to-end metrics; with --trace 1 it runs
the probe's traced pass and reports the per-layer metrics. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See cmpbench/README.md for the metric -> layer -> workload map.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmpbench"
OUT_DIR = BUILD_DIR / "out"

# Grid size: references per thread per cell. This is the size of the
# committed bench/BENCH_sweep.json (so seed 1 is checked against it),
# and the shortest at which the WBHT engages at all (TP only).
GRID_REFS = 20000
# The paper machine runs 16 hardware threads (8 cores x 2-way SMT).
THREADS_PER_CELL = 16
# The cross-width identity check runs a shorter grid.
CROSS_REFS = 2000
# Stream size: references per thread of the migratory trace
# (16 threads -> 0.96 M records, ~363 k ring retries).
STREAM_REFS = 60000
# The ingest queue holds the whole trace, so the reader thread decodes
# it without waiting for the simulation. With the default 4096-record
# queue the two threads hand over every record, and serve's wall time
# depends on how the host runs the two vCPUs: the middle half of 80
# back-to-back runs spanned 21% of the median, against 14% with the
# whole-trace queue.
STREAM_KEYS = [
    "policy=combined",
    "check.oracle=true",
    "check.invariants_every=10000",
    "obs.ingest=false",
    "stream.queue_capacity=1048576",
]
SAMPLE_EVERY = 5000
# SHA-256 of the serve document at seed 1 (STREAM_REFS, STREAM_KEYS,
# SAMPLE_EVERY), its "workload" field (the trace path) replaced by the
# file's base name. A deterministic change to the stream's simulated
# output moves serve and the batch replay together; this fixed
# reference still catches it. Update it only for an intended change to
# the simulated behaviour (the failing run logs the new digest).
STREAM_SEED1_SHA256 = (
    "9b1f09cf0fec2cff55d4831d4971ac8a00dafd2db8e48dee036ca66d625c0cae")
# Set-up is short and noisy; take the median of this many probes.
SETUP_REPS = 7
# No single child may run longer than this (the run must end in 180 s).
CHILD_TIMEOUT_S = 150
GOLDEN = ROOT / "bench" / "BENCH_sweep.json"
PAPER_POLICIES = ["wbht", "snarf", "combined"]
# Paper execution-time improvement over baseline at 6 outstanding
# loads, as EXPERIMENTS.md records it (Table 5 for snarf; the Figure 2
# text names only the WBHT headline, Trade2 ~13%; no combined numbers).
PAPER_IMPROVEMENT = {
    "wbht": {"Trade2": 13.0},
    "snarf": {"CPW2": 1.7, "NotesBench": 2.4, "TP": 13.1, "Trade2": 5.6},
    "combined": {},
}


WORKLOADS = ("grid-parallel", "stream-coherence")
CPUS = sorted(os.sched_getaffinity(0))


def grid_threads():
    return min(4, os.cpu_count() or 1)


class Failure(Exception):
    """The benchmark cannot run at all (no result line is printed)."""


def log(*parts):
    print(*parts, flush=True)


def on_next_cpu(i):
    """Pin this process, and so the children it starts next, to the
    i-th CPU in turn. A single-threaded process stays on one vCPU, and
    on a shared host one vCPU can run 20% slower than another for
    minutes; taking turns spreads a run over all of them."""
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def run_child(cmd, stdout=None, stderr=None, on_line=None):
    """Run @cmd to completion; return (exit code, wall s, peak RSS MB).

    With @on_line, stdout is a pipe and on_line(line, t_since_launch)
    sees each line as it arrives.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE if on_line else stdout,
        stderr=stderr, text=bool(on_line))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        if on_line:
            for line in proc.stdout:
                on_line(line, time.perf_counter() - t0)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout:
            proc.stdout.close()
    wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def build():
    """Configure once, then bring the build up to date."""
    if not (BUILD_DIR / "Makefile").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL)
        if cfg.returncode:
            raise Failure("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
        stdout=subprocess.DEVNULL)
    if made.returncode:
        raise Failure("build failed")


def host_tag():
    cache = (BUILD_DIR / "CMakeCache.txt").read_text()

    def cached(key):
        m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    build_type = cached("CMAKE_BUILD_TYPE")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise Failure(f"refusing to time a '{build_type}' build")
    compiler = cached("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": version[0] if version else compiler,
            "build_type": build_type}


class Tally:
    """Attempted and failed cells, runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            log(f"CHECK FAILED: {what}")
        return ok


def quantile(values, q):
    """Linear-interpolated quantile of @values at @q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def cli():
    return str(BUILD_DIR / "cmpcache" / "cmpcache")


def probe():
    return str(BUILD_DIR / "cmpbench_layers")


def setup_probe(args):
    """Seconds from launch until the probe has done the CLI's set-up."""
    ready = []
    code, _, _ = run_child(
        [probe(), "setup"] + args,
        on_line=lambda line, t: ready.append(t)
        if line.strip() == "ready" else None)
    if code or not ready:
        raise Failure(f"set-up probe failed (exit {code})")
    return ready[0]


def timed_loop(seconds, iterate, setup_args):
    """Repeat iterate() until the run is as close to @seconds as whole
    passes allow, probing set-up after each pass so the probes spread
    over the run; return the set-up times (at least SETUP_REPS)."""
    setups = []
    start = time.perf_counter()
    last = 0.0
    while not setups or time.perf_counter() - start + last / 2 <= seconds:
        t = time.perf_counter()
        iterate()
        setups.append(setup_probe(setup_args))
        last = time.perf_counter() - t
    while len(setups) < SETUP_REPS:
        setups.append(setup_probe(setup_args))
    return setups


def sweep_cmd(threads, refs, seed, out, bench_out=None):
    cmd = [cli(), "sweep", f"--threads={threads}", f"--refs={refs}",
           f"--seed={seed}", f"--out={out}", "--quiet"]
    if bench_out:
        cmd.append(f"--bench-out={bench_out}")
    return cmd


def grid_cells_ok(doc, tally, label):
    cells = json.loads(doc)["results"]
    for cell in cells:
        tally.check(cell.get("status", "ok") != "error",
                    f"{label}: cell {cell.get('workload')}/"
                    f"{cell.get('policy')} failed")
    return cells


def fidelity_table(cells):
    """Simulated improvement over baseline beside the paper's value."""
    exec_time = {(c["workload"], c["policy"]): c["execTime"] for c in cells}
    workloads = sorted({c["workload"] for c in cells})
    log("fidelity (informational, never gates): simulated execution-time "
        "improvement over baseline, %, at outstanding 6, vs the paper's "
        "value from EXPERIMENTS.md. The workloads are synthetic stand-ins "
        "at a reduced length: this is not a validated error figure.")
    log("  policy    " + "".join(f"{w:>22}" for w in workloads))
    for policy in PAPER_POLICIES:
        row = []
        for w in workloads:
            base = exec_time[(w, "baseline")]
            ours = 100.0 * (base - exec_time[(w, policy)]) / base
            paper = PAPER_IMPROVEMENT[policy].get(w)
            shown = "n/a" if paper is None else f"{paper:.1f}"
            row.append(f"{ours:8.2f} (paper {shown:>4})")
        log(f"  {policy:<10}" + "".join(f"{r:>22}" for r in row))


def golden():
    """(bytes, refs, seed) of the committed grid results, or None."""
    if not GOLDEN.exists():
        return None
    data = GOLDEN.read_bytes()
    spec = json.loads(data)
    return data, spec["recordsPerThread"], spec["seed"]


def golden_check(doc, refs, seed, tally):
    """At the committed file's size and seed the grid must reproduce
    bench/BENCH_sweep.json byte for byte. A missing file fails."""
    g = golden()
    if not tally.check(g is not None, f"{GOLDEN} is missing"):
        return
    if (g[1], g[2]) == (refs, seed):
        if tally.check(doc == g[0], "grid results differ from the "
                       "committed bench/BENCH_sweep.json"):
            log("golden: results equal bench/BENCH_sweep.json")


def cross_width_check(seed, tally, work):
    """Untimed: a short grid must give the same bytes at --threads=1
    and at the parallel width."""
    docs = []
    for threads in (1, grid_threads()):
        out = work / f"cross{threads}.json"
        code, _, _ = run_child(sweep_cmd(threads, CROSS_REFS, seed, out))
        docs.append(out.read_bytes() if code == 0 else b"")
    tally.check(docs[0] and docs[0] == docs[1],
                f"sweep results at --threads=1 and --threads="
                f"{grid_threads()} differ")


def grid_untraced(seed, seconds, tally, work):
    threads = grid_threads()
    walls, rss, cell_walls = [], [], []
    docs = []

    def sweep():
        out, bench = work / "results.json", work / "bench.json"
        code, wall, peak = run_child(
            sweep_cmd(threads, GRID_REFS, seed, out, bench))
        if not tally.check(code == 0, f"sweep exited {code}"):
            return
        doc = out.read_bytes()
        cells = grid_cells_ok(doc, tally, "sweep")
        if docs:
            tally.check(doc == docs[0], "sweep results differ between runs")
        else:
            fidelity_table(cells)
            golden_check(doc, GRID_REFS, seed, tally)
        docs.append(doc)
        cell_walls.append([j["wallSeconds"] for j in
                           json.loads(bench.read_text())["perJob"]])
        walls.append(wall)
        rss.append(peak)

    setups = timed_loop(seconds, sweep,
                        [f"--refs={GRID_REFS}", f"--seed={seed}"])
    if not walls:
        raise Failure("no sweep completed")
    cross_width_check(seed, tally, work)
    log(f"samples: {len(walls)} sweeps of {len(cell_walls[0])} cells, "
        f"{len(setups)} set-up probes; {GRID_REFS} refs/thread x "
        f"{THREADS_PER_CELL} threads per cell; --threads={threads}")
    refs = GRID_REFS * THREADS_PER_CELL * len(cell_walls[0])
    return {
        "refs_per_s": metric(statistics.median(refs / w for w in walls),
                             "refs/s"),
        "cell_s_p50": metric(
            statistics.median(quantile(c, 0.5) for c in cell_walls), "s"),
        "cell_s_p90": metric(
            statistics.median(quantile(c, 0.9) for c in cell_walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }


def make_stream(seed, work):
    path = work / "migratory.bin"
    with open(work / "gen.txt", "w") as out:
        code, _, _ = run_child([probe(), "gen", f"--refs={STREAM_REFS}",
                                f"--seed={seed}", f"--out={path}"],
                               stdout=out)
    if code:
        raise Failure("trace generation failed")
    return path, int((work / "gen.txt").read_text())


def serve_cmd(path, out):
    return ([cli(), "serve", f"--trace={path}"] + STREAM_KEYS
            + [f"--sample-every={SAMPLE_EVERY}", f"--out={out}"])


INGESTED = re.compile(r"ingested (\d+) records \((\d+) dropped")


def serve_checked(path, records, expected, tally, work):
    """One `cmpcache serve` run with its output checks."""
    out, err = work / "serve.json", work / "serve.err"
    with open(err, "w") as errf:
        code, wall, peak = run_child(serve_cmd(path, out), stderr=errf)
    tally.check(code == 0, f"serve exited {code}")
    m = INGESTED.search(err.read_text())
    tally.check(m is not None and int(m.group(1)) == records,
                f"serve ingested {m.group(1) if m else '?'} of {records}")
    tally.check(m is not None and int(m.group(2)) == 0,
                "serve dropped records")
    doc = out.read_bytes() if out.exists() else b""
    tally.check(doc == expected,
                "serve result differs from the batch replay")
    return wall, peak, doc


def stream_golden_check(doc, path, seed, tally):
    """At seed 1 serve's document must match the committed digest."""
    if seed != 1:
        return
    doc = doc.replace(json.dumps(str(path)).encode(),
                      json.dumps(path.name).encode())
    digest = hashlib.sha256(doc).hexdigest()
    if tally.check(digest == STREAM_SEED1_SHA256,
                   f"seed-1 serve result (sha256 {digest}) differs from "
                   "the committed digest"):
        log("golden: serve result matches the committed seed-1 digest")


def stream_expected(path, work):
    out = work / "replay.json"
    with open(out, "w") as f:
        code, _, _ = run_child([probe(), "replay", f"--trace={path}"]
                               + STREAM_KEYS
                               + [f"obs.sample_every={SAMPLE_EVERY}"],
                               stdout=f)
    if code:
        raise Failure("batch replay failed")
    return out.read_bytes()


def stream_untraced(seed, seconds, tally, work):
    path, records = make_stream(seed, work)
    expected = stream_expected(path, work)
    walls, rss = [], []

    def serve():
        on_next_cpu(len(walls))
        wall, peak, doc = serve_checked(path, records, expected, tally,
                                        work)
        if not walls:
            stream_golden_check(doc, path, seed, tally)
        walls.append(wall)
        rss.append(peak)

    setups = timed_loop(seconds, serve,
                        [f"--trace={path}"] + STREAM_KEYS
                        + [f"obs.sample_every={SAMPLE_EVERY}"])
    path.unlink()
    log(f"samples: {len(walls)} serve runs of {records} records, "
        f"{len(setups)} set-up probes")
    return {
        "refs_per_s": metric(statistics.median(records / w for w in walls),
                             "refs/s"),
        "cell_s_p50": metric(quantile(walls, 0.5), "s"),
        "cell_s_p90": metric(quantile(walls, 0.9), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }


def layer_metrics(cmd, tally, stem):
    """Run the probe's traced pass; return its per-layer metrics."""
    out = OUT_DIR / f"{stem}.layers.json"
    with open(out, "w") as f:
        code, wall, _ = run_child(
            cmd + [f"--chrome-out={OUT_DIR / stem}.chrome.json"], stdout=f)
    if not tally.check(code == 0, f"traced pass exited {code}"):
        return {}
    metrics = json.loads(out.read_text().strip().splitlines()[-1])
    frac = metrics["bench.unattributed_frac"]["value"]
    bound = metrics["bench.accounting_bound"]["value"]
    tally.check(abs(frac) <= bound,
                f"layer self times leave {frac:.1%} of the traced wall "
                f"time unattributed (bound {bound:.0%})")
    log(f"traced pass: {wall:.1f} s; spans in {OUT_DIR / stem}"
        ".chrome.json (Perfetto); self times account for the traced "
        f"wall time within {frac:.2%} (bound {bound:.0%})")
    return metrics


def grid_traced(seed, tally, work, stem):
    threads = grid_threads()
    cli_out, traced_out = work / "cli.json", work / "traced.json"
    code, _, _ = run_child(sweep_cmd(threads, GRID_REFS, seed, cli_out))
    tally.check(code == 0, f"sweep exited {code}")
    metrics = layer_metrics(
        [probe(), "trace", f"--refs={GRID_REFS}", f"--seed={seed}",
         f"--threads={threads}", f"--results-out={traced_out}"],
        tally, stem)
    if metrics:
        doc = traced_out.read_bytes()
        grid_cells_ok(doc, tally, "traced")
        tally.check(cli_out.exists() and doc == cli_out.read_bytes(),
                    "traced results differ from the untraced sweep")
    g = golden()
    if g and (g[1], g[2]) != (GRID_REFS, seed):
        out = work / "golden.json"
        code, _, _ = run_child(sweep_cmd(grid_threads(), g[1], g[2], out))
        golden_check(out.read_bytes() if code == 0 else b"", g[1], g[2],
                     tally)
    else:
        golden_check(cli_out.read_bytes() if cli_out.exists() else b"",
                     GRID_REFS, seed, tally)
    return metrics


def stream_traced(seed, tally, work, stem):
    path, records = make_stream(seed, work)
    expected = stream_expected(path, work)
    _, _, doc = serve_checked(path, records, expected, tally, work)
    stream_golden_check(doc, path, seed, tally)
    traced_out = work / "traced.json"
    metrics = layer_metrics(
        [probe(), "trace", f"--trace={path}"] + STREAM_KEYS
        + [f"obs.sample_every={SAMPLE_EVERY}",
           f"--results-out={traced_out}"],
        tally, stem)
    if metrics:
        tally.check(traced_out.read_bytes() == expected,
                    "traced stream result differs from serve's")
    path.unlink()
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    host = host_tag()
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace
                                                 else "")
    work = OUT_DIR / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log("host: " + json.dumps(dict(host, seed=args.seed,
                                   workload=args.workload,
                                   trace=args.trace)))

    tally = Tally()
    stream = args.workload == "stream-coherence"
    if args.trace:
        metrics = (stream_traced(args.seed, tally, work, stem) if stream
                   else grid_traced(args.seed, tally, work, stem))
        metrics = {k: v for k, v in metrics.items()
                   if k != "bench.accounting_bound"}
    else:
        metrics = (stream_untraced(args.seed, args.seconds, tally, work)
                   if stream else
                   grid_untraced(args.seed, args.seconds, tally, work))
    fail_frac = tally.failed / max(1, tally.attempted)
    for name, m in metrics.items():
        log(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    log(f"  {'fail_frac':<32} {fail_frac:>16.6g} ratio "
        f"({tally.failed} of {tally.attempted} cells/runs/checks)")
    report = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (work / "report.json").write_text(json.dumps(
        dict(report, host=host, failures=tally.notes), indent=1))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        print(f"cmpbench: {e}", file=sys.stderr)
        sys.exit(2)
