"""Run-to-run spread of the end-to-end metrics, and tracing overhead.

    python3 perfbench/steady.py --workloads train_eval classify --seeds 1 2 3 4 5
    python3 perfbench/steady.py --workloads classify --seeds 20 --overhead

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for each end-to-end metric its median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to a third of the metric's bound in BENCHMARK.json.
``--overhead`` also makes a traced run per seed and compares its
per-workload timings with the untraced run's.  Raw results go to
``.perfbench/steady-<pid>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            report, result = run_once(workload, seed, spec["run_seconds"], 0)
            entry = {"seed": seed, "report": report, "result": result}
            if args.overhead:
                traced, _ = run_once(workload, seed, spec["run_seconds"], 1)
                # extra time the traced run took, as a share of the untraced time
                entry["overhead"] = {
                    k: (traced["metrics"][k]["value"] / v["value"]) ** (
                        -1 if v["unit"] == "1/s" else 1) - 1
                    for k, v in report["metrics"].items()
                    if k in traced["metrics"] and v["unit"] in ("s", "ms", "1/s")}
                entry["traced"] = traced
            runs.append(entry)
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  entry.get("overhead", ""), flush=True)
        raw[workload] = runs
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            line = f"  {name:12s} median {med:.4f}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                flag = "ok" if spread < bound / 3 else "WIDE"
                line += f"  spread {spread:.4f}  bound/3 {bound / 3:.4f}  {flag}"
            print(line, flush=True)
    out = ROOT / ".perfbench" / f"steady-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print("raw results:", out.relative_to(ROOT))


if __name__ == "__main__":
    main()
