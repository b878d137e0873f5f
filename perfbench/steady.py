"""Run-to-run spread of the benchmark's metrics.

Runs one workload (or all) once per seed, each run in a fresh process,
and prints for every metric the median of its values and the distance
between their first and third quartiles as a share of that median,
next to a third of the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py --workload sim_heavy_clients --seeds 1-5
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=900)
            line = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not line["correct"]:
                print(f"{workload} seed {seed}: run failed", flush=True)
                status = 1
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in line["metrics"].items()), flush=True)
        for name, vals in values.items():
            bound = bounds.get(name)
            spread = measure.quartile_spread(vals) if len(vals) > 1 else 0.0
            limit = "" if bound is None else f"  limit {bound / 3:.4f}"
            flag = " OVER" if bound is not None and name != "setup_s" and spread >= bound / 3 else ""
            print(f"{workload:<22} {name:<34} median {statistics.median(vals):<12.6g} "
                  f"spread {spread:.4f}{limit}{flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
