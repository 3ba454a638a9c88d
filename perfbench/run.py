"""urlsleuth benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload train_eval --seed 20 --seconds 5 --trace 0

Run it from the root of a source checkout.  It generates the workload's
inputs from the seed, runs the workload in a fresh single-threaded
process against ``src/urlsleuth``, checks every output, and prints two
JSON lines: a full report (every metric named in ``perfbench/README.md``,
output digests, provenance), then the result line whose ``metrics`` are
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Reports and span dumps are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("train_eval", "classify")
TIME_LIMIT_S = 170.0
SETUP_ROUNDS, SETUP_BEST_OF = 7, 3  # setup_s: median over rounds of the best of 3
PROBE = ("import sys, urlsleuth.cli\n"
         "from urlsleuth.pipeline import load_pipeline\n"
         "for path in sys.argv[1:]:\n"
         "    load_pipeline(path)\n")


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONNOUSERSITE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def child(argv: list[str], log: Path, deadline: float) -> float:
    """Run a Python child to completion; returns its wall seconds.

    A timer kills the child at the deadline, so the wait itself blocks
    instead of polling and the wall time is not rounded to a poll step."""
    killed = threading.Event()
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=pinned_env(),
                                stdout=fh, stderr=fh, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                lambda: (killed.set(), proc.kill()))
        timer.daemon = True
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    if killed.is_set():
        raise BenchError(f"{argv[:3]} did not finish within {TIME_LIMIT_S:.0f} s")
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{argv[:3]} exited {code}:\n{tail}")
    return elapsed


def git_state() -> dict:
    """The checkout's commit and whether tracked files differ from it;
    both None outside a git work tree or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    if head.returncode or status.returncode:
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def code_version() -> str:
    """SHA-256 over the program's sources and the benchmark's code."""
    h = hashlib.sha256()
    for root, pattern in ((ROOT / "src", "*"), (HERE, "*.py")):
        for path in sorted(p for p in root.rglob(pattern)
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def gated(detail: dict, setup: list[float]) -> dict:
    """The end-to-end metrics listed in BENCHMARK.json, common to every workload."""
    m = {"setup_s": (statistics.median(setup), "s") if setup else None,
         "wall_s": (statistics.median(p["wall_s"] for p in detail["passes"]), "s"),
         "artifact_mb": (detail["artifact_mb"], "MiB"),
         "peak_rss_mb": (detail["peak_rss_mb"], "MiB")}
    return {k: {"value": v[0], "unit": v[1]} for k, v in m.items() if v is not None}


def end_to_end(workload: str, detail: dict, failed: int) -> dict:
    """The metrics named per workload in README.md, each as {value, unit}."""
    passes = detail["passes"]
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    m = {"error_rate": (failed / max(1, detail["attempted"]), "ratio")}
    if workload == "train_eval":
        m.update(train_s=(med("train"), "s"), evaluate_s=(med("evaluate"), "s"),
                 rank_s=(med("rank"), "s"))
    else:
        m.update(classify_lr_urls_per_s=(detail["bulk_urls"] / med("classify_lr_s"), "1/s"),
                 classify_knn_urls_per_s=(detail["bulk_urls"] / med("classify_knn_s"), "1/s"),
                 stream_s=(med("stream_s"), "s"))
        for family, samples in detail["latency_ms"].items():
            m[f"latency_{family.lower()}_p50_ms"] = (statistics.median(samples), "ms")
            m[f"latency_{family.lower()}_p99_ms"] = (percentile(samples, 99), "ms")
    return {k: {"value": v[0], "unit": v[1]} for k, v in m.items() if v is not None}


def check_digest(workload: str, seed: int, digest: str, version: str) -> dict:
    """Outputs for one seed must not change between runs of the same code.

    Digests are kept per code version in ``.perfbench/digests.json``.  A
    difference from another version's outputs, or from ``baseline.json``,
    is reported but is not a failure: a faster program may round differently."""
    record = STATE / "digests.json"
    seen = json.loads(record.read_text()) if record.is_file() else {}
    key = f"{workload}:{seed}"
    previous = seen.setdefault(f"{key}:{version}", digest)
    record.write_text(json.dumps(seen, indent=1, sort_keys=True))
    baseline = json.loads((HERE / "baseline.json").read_text()).get("digests", {})
    return {"digest": digest, "code_version": version, "same_as_earlier_runs": previous == digest,
            "same_as_baseline": baseline[key] == digest if key in baseline else None}


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = STATE / "work" / stem
    results = STATE / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    log = work / "log.txt"
    script = str(HERE / "workload.py")
    try:
        child([script, "prepare", workload, str(work), str(seed)], log, deadline)
        setup = []
        if not trace:
            artifacts = []
            if workload == "classify":
                artifacts = [str(work / "built" / "models" / f"{f}.json") for f in ("LR", "KNN")]
            setup = [min(child(["-c", PROBE, *artifacts], log, deadline)
                         for _ in range(SETUP_BEST_OF))
                     for _ in range(SETUP_ROUNDS)]
        result_path = results / f"{stem}.json"
        child([script, "run", workload, str(work), str(seconds), str(int(trace)),
               str(result_path)], log, deadline)
        detail = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not Path(detail["provenance"]["urlsleuth_file"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"imported {detail['provenance']['urlsleuth_file']}, not {ROOT / 'src'}")
    if not detail["passes"]:
        raise BenchError(f"no pass of {workload} completed: {detail['errors']}")
    version = code_version()
    digest = check_digest(workload, seed, detail.pop("digest"), version)
    failed = detail["failed"] + (not digest["same_as_earlier_runs"])
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metrics": {**gated(detail, setup), **end_to_end(workload, detail, failed)},
        "samples": {"passes": len(detail["passes"]), "setup_probes": len(setup) * SETUP_BEST_OF,
                    "latency_per_artifact": {f: len(v) for f, v in
                                             detail.get("latency_ms", {}).items()},
                    "bulk_urls": detail.get("bulk_urls"),
                    "stream_urls": detail.get("stream_urls")},
        "outputs": digest, "errors": detail["errors"],
        "provenance": {**git_state(), "code_version": version, **detail["provenance"]},
    }
    for key in ("batch_gap", "missing", "not_exercised", "by_request", "trace_file", "spans"):
        if key in detail:
            report[key] = detail[key]
    metrics = detail["per_layer"] if trace else gated(detail, setup)
    result = {"correct": failed == 0, "attempted": detail["attempted"],
              "failed": min(failed, detail["attempted"]), "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps({"report": report, "result": result,
                                                      "passes": detail["passes"]}, indent=1))
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "urlsleuth" / "__init__.py").is_file():
        print(f"error: no urlsleuth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
