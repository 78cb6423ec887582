"""Compare the end-to-end benchmark of two checkouts in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S --out BENCH_<pr>.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in PARENT and once in CHANGE, each from its own root with its own,
unmodified benchmark; T is ``run_seconds`` of BENCHMARK.json. The parent
runs first in the odd pairs and the change in the even ones. The two
checkouts must hold byte-identical ``BENCHMARK.json`` and ``perfbench/``
files, so both sides are measured by the same benchmark.

For every end-to-end metric of BENCHMARK.json, the workload's entry in the
output file holds each side's value in every run, its median and
quartiles, the pairs each side won (ties count for neither), the change
of the median relative to the parent's, whether that change is worse than
the metric's bound, and whether it meets the rule for claiming a gain: the
change wins at least nine tenths of the pairs, and the medians differ by
more than the parent's interquartile range. Failed and attempted
operations are recorded per run. Entries of other workloads already in
the output file are kept, so one file collects every workload.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# manifest fields that describe the machine and libraries, not the run
ENV_FIELDS = ("python", "numpy", "blas", "nproc", "cpus_usable", "blas_threads")


def bench_files(root: Path) -> dict[str, bytes]:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(root))] = path.read_bytes()
    return files


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result object and its manifest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode} "
                           f"without a result:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    manifest = next((json.loads(ln[len("manifest "):]) for ln in lines
                     if ln.startswith("manifest ")), {})
    result["manifest"] = {k: manifest.get(k) for k in ENV_FIELDS}
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list[float], change: list[float], pairs: int) -> dict:
    """One metric's statistics; ``metric`` is its BENCHMARK.json entry."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = summarize(parent), summarize(change)
    change_wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    parent_wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    base = p["median"]
    delta = sign * (c["median"] - base)  # > 0: the change is worse
    worse = delta / abs(base) if base else math.copysign(math.inf, delta) if delta else 0.0
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c, "change_wins": change_wins,
            "parent_wins": parent_wins, "ties": pairs - change_wins - parent_wins,
            "median_rel_change": (c["median"] - base) / base if base else None,
            "worse_than_bound": worse > metric["bound"],
            "gain": (change_wins >= 0.9 * pairs
                     and -delta > p["q3"] - p["q1"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if bench_files(roots["parent"]) != bench_files(roots["change"]):
        parser.error("BENCHMARK.json or perfbench/ differ between the checkouts")
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    runs = {side: [] for side in SIDES}
    order = []
    for i in range(args.pairs):
        first = SIDES[i % 2]
        order.append(first)
        for side in (first, *(s for s in SIDES if s != first)):
            runs[side].append(run_once(roots[side], args.workload, args.seed, seconds))
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  + json.dumps({k: v["value"] for k, v in runs[side][-1]["metrics"].items()}),
                  file=sys.stderr, flush=True)

    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in SIDES}
        if len(values["parent"]) == len(values["change"]) == args.pairs:
            metrics[name] = compare(metric, values["parent"], values["change"], args.pairs)
    entry = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs, "first": order,
             **{side: {key: [r[key] for r in runs[side]]
                       for key in ("correct", "attempted", "failed")} for side in SIDES},
             "environment": runs["change"][0]["manifest"], "metrics": metrics}

    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    report.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{args.workload} {name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}-{m['parent']['q3']:.6g}] change "
              f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}-{m['change']['q3']:.6g}] "
              f"change wins {m['change_wins']}/{args.pairs}"
              f"{' WORSE THAN BOUND' if m['worse_than_bound'] else ''}"
              f"{' gain' if m['gain'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
