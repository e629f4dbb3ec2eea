"""Read span files written by a traced benchmark run and print per-layer self time.

A span file is JSON with the keys ``workload``, ``seed``, ``traced_wall_s``,
``overhead_frac`` and ``spans``; each span is
``[name, start_s, end_s, parent_index_or_null, cell_id_or_null, error_or_null]``.
A span's self time is its duration minus the part of it that its child spans
cover.  The layer of a span is the first dotted component of its name;
``bench`` spans are the benchmark's own work (certificate re-checks, the
oracle loop), not layersep's.

Usage: python3 perfbench/trace_report.py SPAN_FILE [SPAN_FILE ...]
Exits 1 if, in any file, the self times do not sum to the traced wall time
within the run's tracing overhead.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

# the sum check tolerates at least this share even when the measured
# overhead is zero or negative
MIN_SUM_TOLERANCE = 0.01


def self_times(spans) -> list[float]:
    """Self time of each span, in span order."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    result = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def by_name(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += own
    return {name: tuple(row) for name, row in table.items()}


def sum_check(doc) -> tuple[bool, float, float]:
    """(ok, sum of self times, allowed relative gap) for one span file."""
    total_self = sum(self_times(doc["spans"]))
    wall = doc["traced_wall_s"]
    allowed = max(doc["overhead_frac"], MIN_SUM_TOLERANCE)
    return abs(total_self - wall) <= allowed * wall, total_self, allowed


def format_report(doc) -> str:
    wall = doc["traced_wall_s"]
    rows = sorted(by_name(doc["spans"]).items(), key=lambda kv: -kv[1][2])
    lines = [
        f"trace {doc['workload']} seed={doc['seed']} traced_wall_s={wall:.4f}"
        f" overhead_frac={doc['overhead_frac']:.4f}",
        f"  {'span':<34} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}",
    ]
    layer_self: dict[str, float] = defaultdict(float)
    for name, (calls, total, own) in rows:
        layer_self[name.split(".")[0]] += own
        lines.append(
            f"  {name:<34} {calls:>8} {total:>10.4f} {own:>10.4f} {100 * own / wall:>6.1f}%"
        )
    lines.append(
        "  by layer: "
        + ", ".join(
            f"{layer} {100 * own / wall:.1f}%"
            for layer, own in sorted(layer_self.items(), key=lambda kv: -kv[1])
        )
    )
    ok, total_self, allowed = sum_check(doc)
    lines.append(
        f"  self times sum to {total_self:.4f} s vs wall {wall:.4f} s"
        f" (allowed gap {100 * allowed:.2f}%): {'ok' if ok else 'MISMATCH'}"
    )
    return "\n".join(lines)


def main(argv) -> int:
    if not argv:
        print("usage: python3 perfbench/trace_report.py SPAN_FILE [SPAN_FILE ...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        print(format_report(doc))
        if not sum_check(doc)[0]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
