"""Workload process: prepares inputs, or runs one workload and writes its
result as JSON.  ``run.py`` starts it in a fresh single-threaded process.

    python perfbench/workload.py prepare WORKLOAD WORK_DIR SEED
    python perfbench/workload.py run WORKLOAD WORK_DIR SECONDS TRACE RESULT_JSON

The program is driven only through ``urlsleuth.cli.main`` and
``urlsleuth.pipeline.load_pipeline(...).predict``.  Everything the
program writes goes under ``WORK_DIR/out*``; timings go only to
``RESULT_JSON``, outside any ``--out`` directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import resource
import shutil
import string
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("train_eval", "classify")
CORPUS = {"n_datasets": 4, "n_records": 2000, "malicious_fraction": 0.3,
          "counts": (2, 1, 1)}
BULK_URLS = 10_000
STREAM_ORDINARY, STREAM_LONG, STREAM_ODD = 1900, 40, 60
STREAM_ROUNDS = 2
ARTIFACTS = ("LR", "KNN")
# Passes stop starting once this much of the process's time is gone, so a
# run stays well inside its time limit whatever ``--seconds`` asks for.
PASS_BUDGET_S = 100.0

SUPERVISED = ("LR", "LINEAR_SVM", "DT", "RF", "GBT", "KNN", "GNB", "MLP")
CONSISTENT_FIVE = ("KNN", "DT", "RF", "LR", "LINEAR_SVM")
FAMILIES = ("BASELINE", *SUPERVISED, "KMEANS", "GMM")


# ---------------------------------------------------------------- inputs

def _long_url(rng: random.Random, base: str, target: int) -> str:
    """A query-stuffed URL of about ``target`` characters built on an
    ordinary one."""
    parts = [base, "&" if "?" in base else "?"]
    size = sum(map(len, parts))
    alphabet = string.ascii_letters + string.digits
    while size < target:
        key = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(4, 24)))
        if rng.random() < 0.2:
            value += "%" + rng.choice("0123456789abcdef") + rng.choice("0123456789abcdef")
        piece = f"{key}={value}&"
        parts.append(piece)
        size += len(piece)
    return "".join(parts).rstrip("&")


_IDN_HOSTS = ("bücher", "münchen", "café", "пример", "почта", "例え", "日本語",
              "παράδειγμα", "مثال", "xn--bcher-kva", "xn--e1afmkfd", "straße")
_IDN_TLDS = ("de", "com", "рф", "jp", "org", "ελ")
_CONTROL = "\x00\x01\x07\x08\x0b\x0c\x1b\x7f\t\x85\u200b"


def _odd_url(rng: random.Random, base: str, kind: int) -> str:
    if kind == 0:  # non-ASCII / IDN host
        host = rng.choice(_IDN_HOSTS) + "." + rng.choice(_IDN_TLDS)
        path = "/" + rng.choice(("straße", "über", "путь", "ページ", "login", "ü%C3%BC"))
        return f"{rng.choice(('http', 'https'))}://{host}{path}?q={rng.randint(1, 999)}"
    if kind == 1:  # control characters spliced into an ordinary URL
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            chars.insert(rng.randint(0, len(chars)), rng.choice(_CONTROL))
        return "".join(chars)
    groups = [f"{rng.randint(0, 0xffff):x}" for _ in range(rng.randint(2, 4))]
    host = "[" + ("::1" if rng.random() < 0.2 else "2001:db8:" + ":".join(groups)) + "]"
    port = f":{rng.randint(1, 65535)}" if rng.random() < 0.5 else ""
    return f"http://{host}{port}/{base.rsplit('/', 1)[-1]}"


def stream_urls(seed: int) -> list[str]:
    """About 95 % ordinary URLs, 2 % long query-stuffed ones, 3 % with
    non-ASCII hosts, control characters or IPv6 literals."""
    from urlsleuth.synth import generate_dataset

    ordinary = [r.url for r in
                generate_dataset("stream", STREAM_ORDINARY, 0.3, seed=seed + 2_000_000).records]
    rng = random.Random(seed + 3_000_000)
    urls = list(ordinary)
    # lengths evenly spaced over 8-32 KB, so every seed scores as many characters
    step = (32 - 8) * 1024 // (STREAM_LONG - 1)
    urls += [_long_url(rng, rng.choice(ordinary), 8 * 1024 + i * step)
             for i in range(STREAM_LONG)]
    urls += [_odd_url(rng, rng.choice(ordinary), i % 3) for i in range(STREAM_ODD)]
    rng.shuffle(urls)
    return urls


def _cli(argv: list[str]) -> int:
    from urlsleuth.cli import main

    return main(argv)


def prepare(workload: str, work: Path, seed: int) -> None:
    """Write the workload's inputs; ``classify`` also gets its LR and KNN
    artifacts, trained by the code under test on the corpus."""
    from urlsleuth.synth import generate_dataset, materialize_run

    seed %= 2**32  # the model families seed numpy generators, which need seed >= 0
    materialize_run(work / "corpus", seed=seed, **CORPUS)
    if workload == "train_eval":
        return
    bulk = generate_dataset("bulk", BULK_URLS, 0.3, seed=seed + 1_000_000)
    (work / "bulk_urls.txt").write_text(
        "".join(r.url + "\n" for r in bulk.records), encoding="utf-8")
    (work / "stream_urls.json").write_text(json.dumps(stream_urls(seed)), encoding="utf-8")
    for family in ARTIFACTS:
        code = _cli(["train", "--config", str(work / "corpus" / "run.json"),
                     "--out", str(work / "built"), "--model", family])
        if code != 0:
            raise SystemExit(f"train --model {family} exited {code}")


# ---------------------------------------------------------------- running

class Ops:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self, recorder=None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recorder = recorder

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def timed(self, request_id: str, fn, *args):
        """Run one operation; returns (seconds, result or None on error)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.recorder is None:
                result = fn(*args)
            else:
                with self.recorder.request(request_id):
                    result = fn(*args)
        except Exception:  # an operation that raises counts as failed
            self.fail(f"{request_id}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, result


class PassClock:
    """Whole passes until ``seconds`` have gone by, but none that would
    end after ``PASS_BUDGET_S``."""

    def __init__(self, seconds: float):
        self.start = time.monotonic()
        self.seconds = seconds

    def more(self, last_pass_s: float) -> bool:
        elapsed = time.monotonic() - self.start
        return elapsed < self.seconds and elapsed + last_pass_s <= PASS_BUDGET_S


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _mib(paths) -> float:
    return sum(p.stat().st_size for p in paths) / 2**20


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_train_eval(out: Path) -> list[str]:
    """Criterion 8's gate on rank_test.csv, and all 11 artifacts scored."""
    problems = []
    test_ids = json.loads((out / "train_summary.json").read_text())["partition"]["test"]
    rows = _read_csv(out / "rank_test.csv")
    header = rows[0]
    ranks = {r[0]: {c: int(v) for c, v in zip(header[1:], r[1:])} for r in rows[1:]}
    for family in SUPERVISED:
        if not any(ranks[family][d] < 10 for d in test_ids):
            problems.append(f"{family} fails the baseline gate on every test dataset")
    for family in CONSISTENT_FIVE:
        if not all(ranks[family][d] < 10 for d in test_ids):
            problems.append(f"{family} fails the baseline gate on a test dataset")
    scored = {r[1] for r in _read_csv(out / "metrics_test.csv")[1:]}
    artifacts = {p.stem for p in (out / "models").glob("*.json")}
    if scored != set(FAMILIES) or artifacts != set(FAMILIES):
        problems.append(f"artifacts {sorted(artifacts)}, evaluated {sorted(scored)}")
    return problems


def check_predictions(path: Path, urls: list[str]) -> list[str]:
    rows = _read_csv(path)
    if len(rows) != len(urls) + 1 or rows[0] != ["url", "label", "score"]:
        return [f"{path.name}: {len(rows)} CSV lines for {len(urls)} URLs"]
    for (url, label, score), expected in zip(rows[1:], urls):
        s = float(score)
        if url != expected or not (math.isfinite(s) and 0.0 <= s <= 1.0) \
                or int(label) != int(s >= 0.5):
            return [f"{path.name}: bad row {url!r},{label},{score}"]
    return []


def run_train_eval(work: Path, ops: Ops, clock: "PassClock") -> dict:
    config = str(work / "corpus" / "run.json")
    passes, digests = [], []
    while True:
        out = work / f"out{len(passes)}"
        base = ["--config", config, "--out", str(out)]
        times = {}
        for command in ("train", "evaluate", "rank"):
            seconds, code = ops.timed(command, _cli, [command, *base])
            times[command] = seconds
            if code not in (0, None):
                ops.fail(f"{command} exited {code}")
        if (out / "rank_test.csv").exists():
            problems = check_train_eval(out)
        else:
            problems = ["rank_test.csv was not written"]
        for problem in problems:
            ops.fail(problem)
        digests.append(tree_digest(out))
        if not passes:
            artifact_mb = _mib((out / "models").glob("*.json"))
        if len(passes) > 0:
            shutil.rmtree(out)
        passes.append({**times, "wall_s": sum(times.values())})
        if not clock.more(passes[-1]["wall_s"]):
            break
    if len(set(digests)) > 1:
        ops.fail("outputs differ between passes")
    return {"passes": passes, "digest": digests[0], "artifact_mb": artifact_mb}


def _bulk_half(work: Path, ops: Ops, urls: list[str]) -> tuple[dict, bytes]:
    """``urlsleuth classify`` over the bulk URLs, once per artifact."""
    times, outputs = {}, b""
    for family in ARTIFACTS:
        out_file = work / f"pred_{family}.csv"
        seconds, code = ops.timed(f"classify-{family}", _cli, [
            "classify", "--artifact", str(work / "built" / "models" / f"{family}.json"),
            "--out-file", str(out_file), str(work / "bulk_urls.txt")])
        times[f"classify_{family.lower()}_s"] = seconds
        if code not in (0, None):
            ops.fail(f"classify {family} exited {code}")
        if not out_file.exists():
            ops.fail(f"{out_file.name} was not written")
            continue
        for problem in check_predictions(out_file, urls):
            ops.fail(problem)
        outputs += out_file.read_bytes()
        out_file.unlink()
    return times, outputs


def _stream_half(ops: Ops, artifacts: dict, urls: list[str], latency: dict) -> dict:
    """Every URL sent alone to each artifact, ``STREAM_ROUNDS`` times;
    returns the single-URL scores, which must repeat exactly each round."""
    import numpy as np

    rounds = []
    for _ in range(STREAM_ROUNDS):
        singles = {f: np.full(len(urls), np.nan) for f in artifacts}
        for i, url in enumerate(urls):
            for family, artifact in artifacts.items():
                seconds, result = ops.timed(f"{family}#{i}", artifact.predict, [url])
                latency[family].append(seconds * 1e3)
                if result is None:
                    continue
                labels, scores = result
                if len(scores) != 1 or not (0.0 <= float(scores[0]) <= 1.0) \
                        or int(labels[0]) != int(scores[0] >= 0.5):
                    ops.fail(f"{family}#{i}: label {labels!r} score {scores!r}")
                    continue
                singles[family][i] = scores[0]
        rounds.append(singles)
    for later in rounds[1:]:
        if any(not np.array_equal(later[f], rounds[0][f]) for f in artifacts):
            ops.fail("single-URL scores differ between rounds")
    return rounds[0]


def run_classify(work: Path, ops: Ops, clock: "PassClock") -> dict:
    import numpy as np
    from urlsleuth.pipeline import load_pipeline

    bulk_urls = (work / "bulk_urls.txt").read_text(encoding="utf-8").splitlines()
    urls = json.loads((work / "stream_urls.json").read_text(encoding="utf-8"))
    artifacts = {}
    for family in ARTIFACTS:
        path = work / "built" / "models" / f"{family}.json"
        _, artifacts[family] = ops.timed(f"load-{family}", load_pipeline, path)
    if any(a is None for a in artifacts.values()):
        return {"passes": [], "digest": None}
    latency = {f: [] for f in ARTIFACTS}
    passes, digests = [], []
    while True:
        times, outputs = _bulk_half(work, ops, bulk_urls)
        start = time.perf_counter()
        singles = _stream_half(ops, artifacts, urls, latency)
        times["stream_s"] = time.perf_counter() - start
        passes.append({**times, "wall_s": sum(times.values())})
        digests.append(hashlib.sha256(outputs + b"".join(
            singles[f].tobytes() for f in ARTIFACTS)).hexdigest())
        if not clock.more(passes[-1]["wall_s"]):
            break
    if len(set(digests)) > 1:
        ops.fail("outputs differ between passes")
    batch_gap = {}
    for family, artifact in artifacts.items():
        _, batch = artifact.predict(urls)  # untimed oracle
        gap = float(np.max(np.abs(batch - singles[family])))
        batch_gap[family] = gap
        if not gap <= 1e-12:
            ops.fail(f"{family}: single-URL and batch scores differ by {gap!r}")
    artifact_paths = [work / "built" / "models" / f"{f}.json" for f in ARTIFACTS]
    return {"passes": passes, "latency_ms": latency, "batch_gap": batch_gap,
            "digest": tree_digest(work / "built") + ":" + digests[0],
            "bulk_urls": len(bulk_urls), "stream_urls": len(urls),
            "artifact_mb": _mib(artifact_paths)}


RUNNERS = {"train_eval": run_train_eval, "classify": run_classify}


def provenance() -> dict:
    import os
    import platform

    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass
    import urlsleuth

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "urlsleuth_file": Path(urlsleuth.__file__).as_posix(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "PYTHONHASHSEED")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run(workload: str, work: Path, seconds: float, trace: bool, result_path: Path) -> None:
    recorder = None
    if trace:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    ops = Ops(recorder)
    detail = RUNNERS[workload](work, ops, PassClock(seconds))
    detail.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  provenance=provenance())
    if recorder is not None:
        from layers import per_layer_metrics

        trace_path = result_path.with_suffix(".spans.json")
        recorder.dump(trace_path)
        metrics, missing, idle = per_layer_metrics(
            recorder.spans, recorder.missing, max(1, len(detail["passes"])))
        detail.update(per_layer=metrics, missing=missing, not_exercised=idle,
                      spans=len(recorder.spans), trace_file=trace_path.name,
                      by_request=_by_request(recorder.spans))
    result_path.write_text(json.dumps(detail), encoding="utf-8")


def _by_request(spans) -> dict:
    """Per-layer times grouped by request kind (request id up to '#')."""
    from layers import layer_totals

    groups = sorted({s[4].split("#")[0] for s in spans if s[4]})
    out = {}
    for group in groups:
        totals = layer_totals(spans, lambda s, g=group: s[4] and s[4].split("#")[0] == g)
        out[group] = {k: v for k, v in sorted(totals.items()) if k.endswith(("_s", ".s")) and v}
    return out


def main(argv: list[str]) -> None:
    command, workload, work = argv[0], argv[1], Path(argv[2])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if command == "prepare":
        prepare(workload, work, int(argv[3]))
    elif command == "run":
        run(workload, work, float(argv[3]), argv[4] == "1", Path(argv[5]))
    else:
        raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
