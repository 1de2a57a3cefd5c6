"""Summarise or compare benchmark results.

    python3 perfbench/compare.py base.txt [new.txt]

Each file holds the standard output of one or more runs of perfbench/run.py,
appended one after the other.  For every workload and metric it prints the
median, the quartile spread as a share of the median, and with two files the
change of the median.  Quality figures repeat exactly only within one BLAS
build and thread count, so files whose runs differ in those (or in the
Python, numpy, scipy or CPU count) are refused.
"""
from __future__ import annotations

import json
import statistics
import sys

MUST_MATCH = ("python", "numpy", "scipy", "blas_name", "blas_version",
              "blas_threads", "blas_threads_env", "cpu_count")


def load(path: str) -> tuple[dict, dict]:
    """(workload, trace) -> metric -> (unit, values), and the machine fields."""
    table: dict = {}
    machine: dict = {}
    meta = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "meta" in obj:
                meta = obj
                for key in MUST_MATCH:
                    machine.setdefault(key, set()).add(obj["meta"][key])
            elif "metrics" in obj and meta is not None:
                key = (meta["meta"]["workload"], meta["meta"]["trace"])
                rows = table.setdefault(key, {})
                values = {n: (m["unit"], m["value"]) for n, m in obj["metrics"].items()}
                values.update({n: (f["unit"], f["value"])
                               for n, f in meta.get("figures", {}).items()})
                for name, (unit, value) in values.items():
                    rows.setdefault(name, (unit, []))[1].append(value)
                meta = None
    return table, machine


def summary(values) -> tuple[float, float]:
    """Median and quartile spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    loaded = [load(p) for p in argv]
    machines = [m for _, m in loaded]
    mixed = {k for m in machines for k, v in m.items() if len(v) > 1}
    if len(machines) == 2:
        mixed |= {k for k in MUST_MATCH if machines[0].get(k) != machines[1].get(k)}
    if mixed:
        print(f"error: runs differ in {', '.join(sorted(mixed))}; not comparable",
              file=sys.stderr)
        return 1
    tables = [t for t, _ in loaded]
    for key in sorted(set().union(*tables)):
        workload, trace = key
        print(f"{workload}{' (traced)' if trace else ''}")
        names = sorted(set().union(*(t.get(key, {}) for t in tables)))
        for name in names:
            cells = []
            for t in tables:
                unit, values = t.get(key, {}).get(name, ("", []))
                if values:
                    med, spread = summary(values)
                    cells.append((med, f"{med:14.6g} ±{100 * spread:5.1f}% n={len(values):<3}"))
                else:
                    cells.append((None, f"{'-':>14} {'':6}  {'':5}"))
            line = f"  {name:40s} {unit:8s} " + "  ".join(c[1] for c in cells)
            if len(cells) == 2 and cells[0][0] and cells[1][0] is not None:
                line += f"  {100 * (cells[1][0] / cells[0][0] - 1):+7.1f}%"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
