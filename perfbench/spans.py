#!/usr/bin/env python3
"""Prints per-name span totals from a perfbench span export.

    python3 perfbench/spans.py .bench_build/perfbench/perfbench-out/spans_loc_walk.csv

The export is CSV with columns name,start_ns,end_ns,parent,request; parent is
the 1-based row of the parent span (0 for a root). A span's self time is its
duration minus the part of it that its child spans cover. The export holds
the id-sampled subset of requests the traced run recorded in full.
"""
import csv
import sys


def self_times(path):
    """{name: [spans, total_ns, self_ns]} over every recorded span."""
    with open(path, newline="") as f:
        rows = [(r["name"], int(r["start_ns"]), int(r["end_ns"]), int(r["parent"]))
                for r in csv.DictReader(f)]
    children = {}
    for i, (_, start, end, parent) in enumerate(rows, 1):
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _) in enumerate(rows, 1):
        covered, reach = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        agg = out.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - covered
    return out


def summary(path):
    """Table lines: name, spans, mean ns, self share of all recorded self time."""
    agg = self_times(path)
    total_self = sum(a[2] for a in agg.values()) or 1
    lines = [f"spans {path}", f"{'name':<22} {'spans':>8} {'mean_ns':>12} {'self_share':>10}"]
    for name, (n, total, self_ns) in sorted(agg.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<22} {n:>8} {total / n:>12.0f} {self_ns / total_self:>10.4f}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print("\n".join(summary(sys.argv[1])))
