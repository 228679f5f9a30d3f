#!/usr/bin/env bash
# End-to-end smoke of the paper-reproduction path: scripts/paper.py
# on tiny traces must exit 0, print every table and figure section,
# and write fig2.csv..fig7.csv with one column per workload.
#
#   tests/paper_smoke.sh <cmpcache binary> <scratch dir>
set -euo pipefail

cli="$1"
out="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
rm -rf "$out"
mkdir -p "$out"

TMPDIR="$out" python3 "$root/scripts/paper.py" --refs=300 --threads=2 \
    --cli="$cli" -o "$out" >"$out/paper.txt"

for section in "Table 1:" "Table 2:" "Table 3:" "Table 4:" "Table 5:" \
    "Figure 2:" "Figure 3:" "Figure 4:" "Figure 5:" "Figure 6:" \
    "Figure 7:" "Ablations:" "Extensions:"; do
    grep -q "^## $section" "$out/paper.txt" \
        || { echo "paper.py printed no '$section' section" >&2; exit 1; }
done
for i in 2 3 4 5 6 7; do
    csv="$out/fig$i.csv"
    [ -f "$csv" ] || { echo "paper.py wrote no $csv" >&2; exit 1; }
    head -1 "$csv" \
        | grep -Eqx '(outstanding|entries),CPW2,NotesBench,TP,Trade2' \
        || { echo "$csv: unexpected header" >&2; exit 1; }
    if awk -F, 'NF != 5 { bad = 1 } END { exit !bad }' "$csv"; then
        echo "$csv: a row without 4 workload columns" >&2
        exit 1
    fi
done
echo "paper smoke OK"
