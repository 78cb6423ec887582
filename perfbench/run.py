"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed,
measured untraced; with ``--trace 1`` its per-layer metrics, from spans
recorded around the package's public functions. Each metric goes on its
own line with its unit, then the environment manifest, and last one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set before numpy loads; one thread is steadier on the small matrices
# the package multiplies, and the manifest records it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "protoadapt" / "__init__.py").is_file():
        print(f"perfbench: no protoadapt package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The config seed must come from --seed alone.
    os.environ.pop("PDA_SEED", None)
    sys.path.insert(0, str(src))
    import workloads

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), root=ROOT)

    metrics = {}
    missing = []
    for entry in wanted:
        if entry["name"] in result.metrics:
            metrics[entry["name"]] = {"value": result.metrics[entry["name"]],
                                      "unit": entry["unit"]}
            print(f"{entry['name']} {result.metrics[entry['name']]!r} {entry['unit']}")
        else:
            missing.append(entry["name"])
    for key, value in result.extra.items():
        print(f"{key} {value!r}")
    if missing:
        print("absent " + " ".join(missing))
    print("manifest " + json.dumps(result.manifest, sort_keys=True))
    # A per-layer metric is absent when the name it wraps is gone; the
    # end-to-end metrics must all be there.
    correct = result.failed == 0 and (bool(args.trace) or not missing)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
