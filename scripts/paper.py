#!/usr/bin/env python3
"""Reproduce every table and figure of the paper with `cmpcache sweep`.

Usage:
    python3 scripts/paper.py [--refs=N] [--threads=N] [--cli=PATH]
                             [-o OUTDIR]

Runs one `cmpcache sweep` per distinct base configuration (25 sweeps,
230 cells), prints Tables 1-5, Figures 2-7, the ablations and the
extensions as text on stdout, and writes OUTDIR/fig{2..7}.csv (plus
PNGs when gnuplot is installed). Every cell uses workload seed 1 and
the retry switch scaled to short synthetic traces: a 250,000-cycle
window with a threshold of 100, where the paper counts 2,000 retries
per 1,000,000 cycles on multi-billion-cycle hardware traces.

The sweep output is byte-identical for any --threads, so the tables
depend only on --refs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ["CPW2", "NotesBench", "TP", "Trade2"]
PRESSURES = [1, 2, 3, 4, 5, 6]
TABLE_SIZES = [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
DEFAULT_TABLE = 32768
BASE_ARGS = ["--seed=1", "retry.window=250000", "retry.threshold=100"]


class Sweeps:
    """Runs `cmpcache sweep` and indexes the cells of each run by
    (workload, policy, outstanding)."""

    def __init__(self, cli, refs, threads, workdir):
        self.cli, self.refs, self.threads = cli, refs, threads
        self.workdir = workdir
        self.runs = 0

    def run(self, policies, outstanding, overrides=(),
            workloads=WORKLOADS):
        self.runs += 1
        out = os.path.join(self.workdir, f"sweep{self.runs}.json")
        cmd = [self.cli, "sweep", f"--refs={self.refs}",
               f"--threads={self.threads}", f"--out={out}", "--quiet",
               "--workloads=" + ",".join(workloads),
               "--policies=" + ",".join(policies),
               "--outstanding=" + ",".join(map(str, outstanding)),
               *BASE_ARGS, *overrides]
        print(f"paper.py: sweep {self.runs}: {' '.join(cmd[2:])}",
              file=sys.stderr)
        status = subprocess.run(cmd).returncode
        if status != 0:
            sys.exit(f"paper.py: sweep exited {status}: {' '.join(cmd)}")
        with open(out) as f:
            results = json.load(f)["results"]
        return {(r["workload"], r["policy"], r["maxOutstanding"]): r
                for r in results}


def improvement(base, other):
    """improvementPct(): % execution-time improvement over base."""
    b = float(base["execTime"])
    return 100.0 * (b - float(other["execTime"])) / b


def reduction(base, other, key):
    b = float(base[key])
    return 100.0 * (b - float(other[key])) / b if base[key] else 0.0


def header(title):
    print(f"\n## {title}\n")


def workload_header(first, width=14, col=12):
    return f"{first:<{width}}" + "".join(f"{w:>{col}}" for w in WORKLOADS)


def print_rows(first_col, rows, precision, note):
    """rows: [(key, [value per workload])], as the figures plot them."""
    print(workload_header(first_col))
    for key, vals in rows:
        print(f"{key:<14}" + "".join(f"{v:12.{precision}f}" for v in vals))
    print(note)


def write_figure(outdir, name, first_col, rows, precision, title, xlabel,
                 ylabel, logx=False):
    """CSV of the rounded values the text table shows; PNG if gnuplot
    is installed."""
    csv = os.path.join(outdir, f"{name}.csv")
    with open(csv, "w") as f:
        f.write(",".join([first_col] + WORKLOADS) + "\n")
        for key, vals in rows:
            f.write(",".join([str(float(key))] + [
                str(float(f"{v:.{precision}f}")) for v in vals]) + "\n")
    print(f"wrote {csv} ({len(rows)} rows)", file=sys.stderr)
    if not shutil.which("gnuplot"):
        return
    png = os.path.join(outdir, f"{name}.png")
    cols = ", ".join(
        f"'{csv}' using 1:{i + 2} with linespoints title '{w}'"
        for i, w in enumerate(WORKLOADS))
    script = (
        "set datafile separator ',';"
        "set key autotitle columnhead outside;"
        f"set title '{title}'; set xlabel '{xlabel}';"
        f"set ylabel '{ylabel}';"
        + ("set logscale x 2;" if logx else "")
        + f"set term pngcairo size 800,500; set output '{png}';"
        f"plot {cols}")
    subprocess.run(["gnuplot", "-e", script], check=False)
    if os.path.exists(png):
        print(f"wrote {png}", file=sys.stderr)


def table3(cli, workdir):
    """System parameters from --dump-config, plus the composed
    contention-free latency of one isolated miss to memory."""
    trace = os.path.join(workdir, "one_load.trace")
    with open(trace, "w") as f:
        f.write("0 L 0x0 0\n")
    out = subprocess.run(
        [cli, "run", f"--trace={trace}", "--dump-config",
         "warmup=false"], check=True, capture_output=True,
        text=True).stdout
    cfg, cycles = {}, None
    for line in out.splitlines():
        key, eq, value = line.partition(" = ")
        if eq:
            cfg[key] = value
        elif line.startswith(trace + ": "):
            cycles = int(line.split()[1])

    def num(key):
        return int(cfg[key])

    def row(name, ours, paper):
        print(f"{name:<34}{ours:<26}{paper}")

    row("parameter", "cmpcache default", "paper")
    row("processors", f"{num('topology.cores')}, "
        f"{num('topology.smt')}-way SMT", "8, 2-way SMT")
    row("L2 caches", cfg["topology.l2s"], "4")
    l2_slices = num("l2.slices")
    row("L2 size", f"{l2_slices} slices x "
        f"{num('l2.size_bytes') // l2_slices // 1024} KB",
        "4 slices, 512 KB each")
    row("L2 associativity", f"{num('l2.assoc')}-way", "8-way")
    row("L2 latency", f"{num('l2.hit_latency')} cycles", "20 cycles")
    l3_slices = num("topology.l3_slices")
    row("L3 size", f"{l3_slices} slices x "
        f"{num('l3.size_bytes') // l3_slices // 1024 // 1024} MB",
        "4 slices, 4 MB each")
    row("L3 associativity", f"{num('l3.assoc')}-way", "16-way")
    row("line size", f"{num('l2.line_size')} B", "128 B")
    row("ring", f"slot/{num('ring.addr_slot_cycles')} cycles, "
        "bi-directional", "1:2 core speed, 32B-wide")
    print("\nComposed contention-free latencies:")
    row("memory (from core)", f"{cycles} cycles", "431 cycles")
    print("\n(L2-to-L2 transfer 77 cycles and L3 167 cycles are composed "
          "from the same\n ring parameters; see "
          "tests/sim/test_cmp_system.cc timing checks.)")


def report(sweeps, outdir):
    cli = sweeps.cli
    # One grid serves Figures 2/3/5/7 and Tables 1/2/4/5, and holds
    # the baseline every other comparison divides by. The reuse
    # tracker only adds Table 2's wbReused* fields.
    grid = sweeps.run(["baseline", "wbht", "wbht-global", "snarf",
                       "combined"], PRESSURES, ["reuse_tracker=true"])

    def cell(wl, policy, o=6):
        return grid[(wl, policy, o)]

    def base(wl, o=6):
        return cell(wl, "baseline", o)

    def at6(policy, *overrides):
        """One policy at 6 loads/thread on a changed base, by workload."""
        cells = sweeps.run([policy], [6], overrides)
        return {wl: cells[(wl, policy, 6)] for wl in WORKLOADS}

    sizes = {policy: {n: {wl: cell(wl, policy) for wl in WORKLOADS}
                      if n == DEFAULT_TABLE
                      else at6(policy, f"{policy}.entries={n}")
                      for n in TABLE_SIZES}
             for policy in ("wbht", "snarf")}

    print(f"refs/thread={sweeps.refs} seed=1 "
          "retry.window=250000 retry.threshold=100")

    header("Table 1: Percentage of Clean L2 Write Backs Already Present "
           "in the L3 Cache")
    paper = {"CPW2": 60.0, "NotesBench": 59.1, "TP": 42.1, "Trade2": 79.1}
    print(f"{'workload':<12}{'measured':>12}{'paper':>12}")
    for wl in WORKLOADS:
        print(f"{wl:<12}{base(wl)['cleanWbRedundantPct']:11.1f}%"
              f"{paper[wl]:11.1f}%")

    header("Table 2: Write Back Reuse Statistics")
    paper = {"CPW2": (27.1, 38.4), "NotesBench": (33.9, 53.2),
             "TP": (15.5, 18.6), "Trade2": (28.9, 58.7)}
    print(f"{'workload':<12}{'%total':>11}{'%accepted':>13}"
          f"{'paper-total':>14}{'paper-acc':>14}")
    for wl in WORKLOADS:
        r = base(wl)
        print(f"{wl:<12}{r['wbReusedTotalPct']:11.1f}"
              f"{r['wbReusedAcceptedPct']:13.1f}{paper[wl][0]:14.1f}"
              f"{paper[wl][1]:14.1f}")

    header("Table 3: System Parameters")
    table3(cli, sweeps.workdir)

    header("Table 4: Effects of Write Back History Table "
           "(6 Loads per Thread Maximum)")
    print(f"{'workload':<12}{'config':<8}{'correct%':>12}{'L3hit%':>12}"
          f"{'WBreqs':>12}{'L3retries':>12}")
    for wl in WORKLOADS:
        b, w = base(wl), cell(wl, "wbht")
        print(f"{wl:<12}{'base':<8}{'n/a':>12}"
              f"{b['l3LoadHitRatePct']:12.1f}{b['l2WbRequests']:12d}"
              f"{b['l3Retries']:12d}")
        print(f"{'':<12}{'wbht':<8}{w['wbhtCorrectPct']:12.1f}"
              f"{w['l3LoadHitRatePct']:12.1f}{w['l2WbRequests']:12d}"
              f"{w['l3Retries']:12d}")

    header("Table 5: Effects of L2-to-L2 Write Backs "
           "(6 Loads Per Thread Maximum)")
    print(workload_header("metric", 26))
    for label, fn in [
            ("perf improvement", improvement),
            ("off-chip access reduction",
             lambda b, s: reduction(b, s, "offChipAccesses")),
            ("write backs snarfed", lambda b, s: s["wbSnarfedPct"]),
            ("snarfed used locally",
             lambda b, s: s["snarfedUsedLocallyPct"]),
            ("snarfed for interventions",
             lambda b, s: s["snarfedForInterventionPct"]),
            ("L2 hit rate increase",
             lambda b, s: s["l2HitRatePct"] - b["l2HitRatePct"]),
            ("L3 retry reduction",
             lambda b, s: reduction(b, s, "l3Retries"))]:
        print(f"{label:<26}" + "".join(
            f"{fn(base(wl), cell(wl, 'snarf')):11.1f}%"
            for wl in WORKLOADS))

    for fig, policy, title, caption in [
            ("fig2", "wbht", "Runtime Improvement Over Baseline of Write "
             "Back History Table",
             "WBHT (32K entries) % improvement vs outstanding "
             "loads/thread"),
            ("fig3", "wbht-global", "Runtime Improvement of Updating All "
             "WBHTs Using L3 Snoop Response",
             "WBHT-global (32K entries) % improvement vs outstanding "
             "loads/thread"),
            ("fig4", "wbht", "Normalized Runtime of Varying L2 WBHT Sizes "
             "(Normalized to 512-Entry WBHT)",
             "WBHT size sweep @ 6 outstanding loads/thread"),
            ("fig5", "snarf", "Runtime Improvement Over Baseline of "
             "Allowing L2 Snarfing",
             "Snarfing (32K-entry table) % improvement vs outstanding "
             "loads/thread"),
            ("fig6", "snarf", "Runtime of Varying L2 Snarf Table Sizes "
             "(Normalized to 512-Entry Snarf Table)",
             "Snarf-table size sweep @ 6 outstanding loads/thread"),
            ("fig7", "combined", "Runtime Improvement Over Baseline of "
             "Combined Tables (16K + 16K entries)",
             "Combined % improvement vs outstanding loads/thread")]:
        header(f"Figure {fig[3]}: {title}")
        print(caption)
        if fig in ("fig4", "fig6"):
            by_size = sizes[policy]
            rows = [(n, [by_size[n][wl]["execTime"]
                         / by_size[TABLE_SIZES[0]][wl]["execTime"]
                         for wl in WORKLOADS]) for n in TABLE_SIZES]
            print_rows("entries", rows, 4,
                       "(runtime normalized to the smallest table)")
            write_figure(outdir, fig, "entries", rows, 4, title,
                         "table entries", "normalized runtime", logx=True)
        else:
            rows = [(o, [improvement(base(wl, o), cell(wl, policy, o))
                         for wl in WORKLOADS]) for o in PRESSURES]
            print_rows("outstanding", rows, 2, "(%)")
            write_figure(outdir, fig, "outstanding", rows, 2, title,
                         "max outstanding loads/thread", "% improvement")

    header("Ablations: retry switch, snarf victim choice, snarf "
           "insertion, switch threshold")
    always = sweeps.run(["wbht"], [1, 6], ["use_retry_switch=false"])
    print("--- 1. WBHT retry-rate switch (improvement %, low vs high "
          "pressure) ---")
    print(f"{'workload':<12}{'gated@1':>14}{'always@1':>14}"
          f"{'gated@6':>14}{'always@6':>14}")
    for wl in WORKLOADS:
        print(f"{wl:<12}" + "".join(
            f"{improvement(base(wl, o), cells[(wl, 'wbht', o)]):14.2f}"
            for o in (1, 6) for cells in (grid, always)))

    print("\n--- 2. Snarf victim choice (improvement % @6) ---")
    inv_only = at6("snarf", "snarf_shared_victims=false")
    print(f"{'workload':<12}{'invalid-only':>16}{'invalid+shared':>16}")
    for wl in WORKLOADS:
        print(f"{wl:<12}{improvement(base(wl), inv_only[wl]):16.2f}"
              f"{improvement(base(wl), cell(wl, 'snarf')):16.2f}")

    print("\n--- 3. Snarf insertion position (improvement % @6) ---")
    lru = at6("snarf", "snarf_insert=lru")
    print(f"{'workload':<12}{'MRU':>12}{'LRU':>12}")
    for wl in WORKLOADS:
        print(f"{wl:<12}{improvement(base(wl), cell(wl, 'snarf')):12.2f}"
              f"{improvement(base(wl), lru[wl]):12.2f}")

    print("\n--- 4. Retry-switch threshold sweep (TP improvement %) ---")
    print(f"{'threshold':<12}{'@2':>10}{'@6':>10}")
    for thr in (25, 100, 400, 1600):
        cells = grid if thr == 100 else sweeps.run(
            ["wbht"], [2, 6], [f"retry.threshold={thr}"], ["TP"])
        print(f"{thr:<12}" + "".join(
            f"{improvement(base('TP', o), cells[('TP', 'wbht', o)]):10.2f}"
            for o in (2, 6)))

    header("Extensions: coarse WBHT entries, WBHT-informed replacement, "
           "L3 latency")
    coarse = at6("wbht", "wbht.entries=8192", "wbht.lines_per_entry=4")
    print("--- 1. Coarse-grained WBHT entries (improvement % over "
          "baseline @6) ---")
    print(f"{'workload':<12}{'8K x 1-line':>14}{'8K x 4-line':>14}"
          f"{'32K x 1-line':>14}")
    for wl in WORKLOADS:
        print(f"{wl:<12}" + "".join(
            f"{improvement(base(wl), r):14.2f}"
            for r in (sizes["wbht"][8192][wl], coarse[wl],
                      cell(wl, "wbht"))))

    print("\n--- 2. WBHT-informed L2 replacement (improvement % over "
          "baseline @6) ---")
    informed = at6("wbht", "wbht_informed_replacement=true")
    print(f"{'workload':<12}{'wbht':>14}{'wbht+informed':>18}")
    for wl in WORKLOADS:
        print(f"{wl:<12}{improvement(base(wl), cell(wl, 'wbht')):14.2f}"
              f"{improvement(base(wl), informed[wl]):18.2f}")

    # The paper's machine composes its 167-cycle L3 load-to-use from a
    # 112-cycle data array; 40 models an on-chip L3, 224 a far one.
    latency = {112: grid}
    for lat in (40, 224):
        latency[lat] = sweeps.run(["baseline", "wbht", "snarf"], [6],
                                  [f"l3.access_latency={lat}"])
    for i, policy in enumerate(("wbht", "snarf"), start=3):
        print(f"\n--- {i}. L3 latency: {policy} improvement % over "
              "baseline @6 ---")
        print(workload_header("L3 latency", 16))
        for label, lat in (("on-chip (40)", 40), ("paper (112)", 112),
                           ("far (224)", 224)):
            cells = latency[lat]
            gains = [improvement(cells[(wl, "baseline", 6)],
                                 cells[(wl, policy, 6)]) for wl in WORKLOADS]
            print(f"{label:<16}" + "".join(f"{g:12.2f}" for g in gains))


def main():
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--refs", type=int, default=60000,
                    help="references per thread (default 60000)")
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="sweep cells run in parallel (default: cores)")
    ap.add_argument("--cli", default=str(repo / "build/src/cmpcache"),
                    help="cmpcache binary (default build/src/cmpcache)")
    ap.add_argument("-o", "--outdir", default="figures",
                    help="figure CSV/PNG directory (default figures)")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    with tempfile.TemporaryDirectory() as workdir:
        report(Sweeps(args.cli, args.refs, args.threads, workdir),
               args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
