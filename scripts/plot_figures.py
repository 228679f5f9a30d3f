#!/usr/bin/env python3
"""Plot per-cell timelines from a sampled sweep results file.

Usage:
    python3 scripts/plot_figures.py --timeline results.json [-o outdir]

The input is a sampled sweep results file (`cmpcache sweep
--sample-every=N`); each cell's embedded time series becomes a CSV
plus, when gnuplot is installed, a retry-rate / WBHT-gate timeline
plot (the docs/observability.md worked example). The paper's tables
and figures come from scripts/paper.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

# Channels plotted by --timeline when present in a cell's series:
# (channel, label, 1 = cumulative counter -> plot per-sample delta)
TIMELINE_CHANNELS = [
    ("retry_monitor.last_window_retries", "retry rate (last window)", 0),
    ("retry_monitor.wbht_active_now", "WBHT gate (0/1)", 0),
    ("ring.pending_now", "ring queue depth", 0),
    ("l3.incoming_queue_busy_now", "L3 WB-queue busy", 0),
    ("l2_0.wb_aborted_by_wbht", "WB aborts (delta)", 1),
]


def timeline_label(results, i):
    try:
        r = results[i]
        return f"{r['workload']}-{r['policy']}-o{r['maxOutstanding']}"
    except (IndexError, KeyError, TypeError):
        return str(i)


def plot_timelines(path, outdir):
    with open(path) as f:
        doc = json.load(f)
    series_list = doc.get("timeSeries")
    if not series_list:
        print("no timeSeries block in", path,
              "(run with --sample-every=N)", file=sys.stderr)
        return 1

    os.makedirs(outdir, exist_ok=True)
    for i, cell in enumerate(series_list):
        ticks = cell.get("ticks", [])
        series = cell.get("series", {})
        if not ticks:
            continue
        cols = [(label, series[name], delta)
                for name, label, delta in TIMELINE_CHANNELS
                if name in series]
        if not cols:
            continue
        label = timeline_label(doc.get("results", []), i)
        csv = os.path.join(outdir, f"timeline_{label}.csv")
        with open(csv, "w") as f:
            f.write(",".join(["tick"] + [c[0] for c in cols]) + "\n")
            prev = [0.0] * len(cols)
            for k, t in enumerate(ticks):
                row = [str(t)]
                for j, (_, vals, delta) in enumerate(cols):
                    v = vals[k]
                    row.append(str(v - prev[j] if delta else v))
                    prev[j] = v
                f.write(",".join(row) + "\n")
        print(f"wrote {csv} ({len(ticks)} samples)")

        if shutil.which("gnuplot"):
            png = os.path.join(outdir, f"timeline_{label}.png")
            plots = ", ".join(
                f"'{csv}' using 1:{j + 2} with steps title "
                f"'{c[0]}'" for j, c in enumerate(cols))
            script = (
                "set datafile separator ',';"
                "set key autotitle columnhead outside;"
                f"set title 'cmpcache timeline: {label}';"
                "set xlabel 'cycle'; set ylabel 'value';"
                f"set term pngcairo size 1000,500; set output '{png}';"
                f"plot {plots}")
            subprocess.run(["gnuplot", "-e", script], check=False)
            if os.path.exists(png):
                print(f"wrote {png}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("results",
                    help="sampled sweep results JSON (--sample-every=N)")
    ap.add_argument("-o", "--outdir", default="figures")
    ap.add_argument("--timeline", action="store_true",
                    help="plot per-cell timelines (the only mode)")
    args = ap.parse_args()
    if not args.timeline:
        ap.error("only --timeline is supported; the paper's tables and "
                 "figures come from scripts/paper.py")
    return plot_timelines(args.results, args.outdir)


if __name__ == "__main__":
    sys.exit(main())
