#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds run records as the benchmark writes them under
`.bench_out/results/` (searched recursively). For every (workload, metric)
the tool prints each side's median and quartiles, the sample count and a
verdict against the bounds in BENCHMARK.json:

  regressed   the after median is worse than the before median by more
              than the bound
  unresolved  the before runs spread wider than the bound, and not every
              after run beats every before run
  improved    better by more than the before runs' own quartile spread
  same        none of the above

Per-layer metrics (traced runs) have no bound; they are printed with
`changed` or `same` only.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, traced, metric): [values]} and the hosts seen."""
    values, hosts = {}, set()
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
            workload, traced, metrics = rec["workload"], rec["trace"], rec["metrics"]
        except (ValueError, KeyError, TypeError):
            print(f"skipping {path}: not a run record", file=sys.stderr)
            continue
        hosts.add((rec.get("available_parallelism"), rec.get("cpu_model")))
        for name, m in metrics.items():
            values.setdefault((workload, traced, name), []).append(m["value"])
    return values, hosts


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(a, b, better, bound):
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    if med_a == 0:
        return "same" if med_b == 0 else "changed"
    sign = 1 if better == "lower" else -1
    worse = sign * (med_b - med_a) / abs(med_a)
    if bound is None:
        return "same" if med_a == med_b else "changed"
    spread = (qa[2] - qa[0]) / abs(med_a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse > bound:
        return "regressed"
    if spread > bound and not all_better:
        return "unresolved"
    if -worse > spread:
        return "improved"
    return "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, hosts_a = load(sys.argv[1])
    after, hosts_b = load(sys.argv[2])
    for side, hosts in (("before", hosts_a), ("after", hosts_b)):
        for par, cpu in sorted(hosts, key=str):
            print(f"{side}: available_parallelism={par} cpu={cpu}")
    print(f"{'workload':14} {'metric':30} {'n':>5} {'before q1/med/q3':>34} {'after q1/med/q3':>34}  verdict")
    regressed = False
    for key in sorted(set(before) & set(after)):
        workload, traced, name = key
        m = meta.get(name)
        if m is None:
            continue
        a, b = before[key], after[key]
        v = verdict(a, b, m["better"], None if traced else m["bound"])
        regressed |= v == "regressed"
        fa = "/".join(f"{x:.4g}" for x in quartiles(a))
        fb = "/".join(f"{x:.4g}" for x in quartiles(b))
        print(f"{workload:14} {name:30} {len(a):>2}/{len(b):<2} {fa:>34} {fb:>34}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
