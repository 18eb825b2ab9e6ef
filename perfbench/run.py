#!/usr/bin/env python3
"""meanderq benchmark: CLI documents run end to end, one fresh interpreter each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one client in a closed loop.  The workload's documents run one
after another, each in its own ``python3`` process that imports
``meanderq.cli`` from ``src/`` and calls ``meanderq.cli.main(argv)``, the
public CLI entry point; the next starts only when the last has exited.
Iterations over the documents repeat until another would pass S seconds.
Every document's output is checked against ``golden.json`` (``checks.py``).

``--trace 0`` prints the end-to-end metrics:

* run_s: per document, the median over iterations of the time from the
  ``cli.main`` call to its return, summed over the documents.
* cpu_s: the same for user+sys CPU of the document process and its children.
* setup_s: median over the run's processes of the time from spawn until
  ``import meanderq.cli`` (which imports the ``meanderq`` package) returns.
* peak_rss_mb: the largest peak resident set among the document processes.

``--trace 1`` runs the documents once untraced and once traced
(``tracing.py``), then the kernel probes (``probes.py``), and prints the
per-layer metrics.  Both modes also print error_rate (documents failed over
documents attempted) and a stamp line, and write everything measured,
spans included, to ``.bench_out/``.  The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Time metrics are reported in reference seconds: a document's measured
# times are scaled by REFERENCE_CALIBRATION_S over the time the calibration
# loop took in this process just before and after it.  The loop runs no
# meanderq code, so the scaling removes the host's speed drift (other
# tenants of a shared machine) and nothing the program does.
CALIBRATION_LOOP = 100_000
REFERENCE_CALIBRATION_S = 0.010
DOC_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 120

# Documents per workload, as CLI argument strings; "{seed}" is the workload
# seed.  README.md says why each workload is there.
WORKLOADS = {
    "tables": [
        "poly --kind semi --n 7 --jobs 1",
        "poly --kind meander --n 5 --jobs 1",
    ],
    "formal-moments": [
        "moments --operator T --d 3 --n 9 --cap 9",
        "moments --operator T --d 4 --n 8 --cap 8",
        "moments --operator X --d 2 --n 4 --cap 4",
    ],
    "rational-spectra": [
        "spectrum --d 3 --q 1/2 --n 10",
        "spectrum --d 2 --q 0.5 --n 12",
        "moments --operator X --d 2 --q 1/2 --n 5 --cap 5",
    ],
    "verify-suites": [
        "verify --suite wick --d 2 --seed {seed}",
        "verify --suite semi-moments --d 3",
        "verify --suite meander-moments --d 2",
        "verify --suite crossing-formula --seed {seed}",
        "verify --suite pair-counting --d 2",
        "verify --suite restricted-wick --d 2",
        "verify --suite commutator --d 2 --seed {seed}",
        "verify --suite bnc-q0 --d 3",
    ],
}

# A cheap document run before any timing, so bytecode is compiled and the
# files are in the page cache when the measured processes start.
WARMUP = "enumerate --kind pairs --n 1"


def _calibration_loop() -> int:
    table = {i: i * 7 % 13 for i in range(64)}
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += table[i & 63] * (i % 5)
    return acc


def host_speed() -> float:
    """Seconds one fixed pure-Python loop takes in this (benchmark) process,
    median of three, with the garbage collector off."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.monotonic()
            _calibration_loop()
            times.append(time.monotonic() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def document_argv(template: str, seed: int) -> list:
    return template.replace("{seed}", str(seed)).split()


def run_document(argv: list, trace: bool) -> dict:
    """Run one document in a fresh interpreter; the child's report plus
    ``setup_s`` (spawn until the import returned) and any ``error``."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), "1" if trace else "0", *argv]
    env = {k: v for k, v in os.environ.items() if k != "MEANDER_CAP"}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=DOC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {DOC_TIMEOUT_S} s"}
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"child exited {proc.returncode} without a report: {err.strip()[-2000:]}"}
    report["setup_s"] = report["ready"] - spawned
    if err:
        report["stderr"] = err[-2000:]
    return report


class Run:
    """The documents run so far, their checks and their failures."""

    def __init__(self, workload: str, seed: int, goldens: dict):
        self.templates = WORKLOADS[workload]
        self.seed = seed
        self.goldens = goldens
        self.records = []  # (template, report) for every measured process
        self.attempted = 0
        self.failures = []  # one entry per failed operation
        self.speed = None  # last host_speed(), taken after the previous document

    def document(self, template: str, trace: bool) -> dict:
        self.attempted += 1
        before = self.speed or host_speed()
        report = run_document(document_argv(template, self.seed), trace)
        self.speed = host_speed()
        report["calibration_s"] = (before + self.speed) / 2
        problems = [report["error"]] if "error" in report else checks.check_document(
            self.goldens, template, self.seed, report.get("rc"), report.get("out", "")
        )
        if problems:
            self.failures.append({"document": template, "problems": problems[:10],
                                  "stderr": report.get("stderr", "")})
        report["ok"] = not problems
        self.records.append((template, report))
        return report

    def iteration(self, trace: bool) -> list:
        return [self.document(t, trace) for t in self.templates]

    def warm_up(self) -> None:
        self.attempted += 1
        report = run_document(WARMUP.split(), False)
        if report.get("rc") != 0:
            self.failures.append({"document": WARMUP, "problems": [report.get("error", "exit code")]})


def reference_s(report: dict, key: str) -> float:
    """A time of one document process in reference seconds: scaled by how
    much slower than REFERENCE_CALIBRATION_S the host ran the calibration
    loop around that document."""
    return report.get(key, 0.0) * REFERENCE_CALIBRATION_S / report["calibration_s"]


def time_metrics(iterations: list, scale) -> dict:
    """run_s and cpu_s: per document the median over iterations, summed
    over documents; setup_s: the median over all processes."""
    return {
        "run_s": sum(statistics.median(scale(r, "run_s") for r in docs) for docs in zip(*iterations)),
        "cpu_s": sum(statistics.median(scale(r, "cpu_s") for r in docs) for docs in zip(*iterations)),
        "setup_s": statistics.median(scale(r, "setup_s") for docs in iterations for r in docs),
    }


def end_to_end(run: Run, seconds: float) -> dict:
    run.warm_up()
    start = time.monotonic()
    iterations, durations = [], []
    while True:
        t0 = time.monotonic()
        iterations.append(run.iteration(trace=False))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    metrics = {k: (v, "s") for k, v in time_metrics(iterations, reference_s).items()}
    rss_kb = max(r.get("rss_kb", 0) for docs in iterations for r in docs)
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return {
        "metrics": metrics,
        "wall": time_metrics(iterations, lambda r, key: r.get(key, 0.0)),
        "iterations": len(iterations),
    }


def moment_orders(doc: dict) -> int:
    """Moment orders of the semi-meander operator T a document returned."""
    if "n_moments" in doc:
        return doc["n_moments"]
    if doc.get("operator") == "T":
        return len(doc["moments"]) - 1
    return 0


def per_layer(run: Run) -> dict:
    run.warm_up()
    untraced = run.iteration(trace=False)
    traced = run.iteration(trace=True)
    traced_s = sum(r.get("run_s", 0.0) for r in traced)
    # Both sides in reference seconds, so host drift between them cancels.
    untraced_ref = sum(reference_s(r, "run_s") for r in untraced)
    overhead = sum(reference_s(r, "run_s") for r in traced) / untraced_ref if untraced_ref else 0.0

    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = {}
    support_peak = 0
    orders = instances = 0
    spans = []
    missing = set()
    for template, report in zip(run.templates, traced):
        trace = report.get("trace", {})
        for layer, s in trace.get("self_s", {}).items():
            if layer in self_s:
                self_s[layer] += s
        for key, c in trace.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + c
        support_peak = max(support_peak, trace.get("support_peak", 0))
        spans.append({"document": template, "spans": trace.get("spans", [])})
        missing.update(trace.get("missing", []))
        if report["ok"]:
            doc = json.loads(report["out"])
            orders += moment_orders(doc)
            instances += doc.get("instances", 0)

    metrics = {f"{layer}.self_s": (s, "s") for layer, s in self_s.items()}
    metrics["other.self_s"] = (traced_s - sum(self_s.values()), "s")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    step_calls = counts.get("fock.step_calls", 0)
    step_out = counts.get("fock.step_states_out", 0)
    metrics.update({
        "fock.step_calls": (step_calls, "count"),
        "fock.steps_per_moment": (step_calls / orders if orders else 0.0, "ratio"),
        "fock.apply_calls": (counts.get("fock.apply_calls", 0), "count"),
        "fock.states_out": (counts.get("fock.states_out", 0), "count"),
        "fock.support_peak": (support_peak, "count"),
        "fock.kept_ratio": (counts.get("fock.step_states_fed", 0) / step_out if step_out else 0.0, "ratio"),
        "scalars.qpoly_init_calls": (counts.get("scalars.qpoly_init_calls", 0), "count"),
        "qwick.wick_calls": (counts.get("qwick.wick_calls", 0), "count"),
        "verify.instances": (instances, "count"),
    })
    if missing:
        sys.stderr.write(f"warning: trace hooks not found, their counts read 0: {sorted(missing)}\n")

    metrics.update(run_probes(run))
    return {"metrics": metrics, "spans": spans, "missing_hooks": sorted(missing)}


def run_probes(run: Run) -> dict:
    run.attempted += 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "probes.py"), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        run.failures.append({"document": "probes", "problems": [proc.stderr.strip()[-2000:]]})
        return {}
    if report["problems"]:
        run.failures.append({"document": "probes", "problems": report["problems"]})
    return {k: tuple(v) for k, v in report["metrics"].items()}


def git_sha():
    """Commit of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "utc_start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "meanderq" / "cli.py").is_file():
        sys.stderr.write(f"error: no meanderq sources under {SRC}\n")
        return 2
    try:
        goldens = checks.load_goldens()
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: goldens unusable: {exc}\n")
        return 2

    info = stamp(args)
    print("stamp " + json.dumps(info))
    run = Run(args.workload, args.seed, goldens)
    result = per_layer(run) if args.trace else end_to_end(run, args.seconds)

    attempted, failed = run.attempted, len(run.failures)
    for f in run.failures:
        sys.stderr.write(f"FAILED {f['document']}: {f['problems']}\n")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    for name, value in result.get("wall", {}).items():
        print(f"wall {name} {value:.6g} s (unscaled)")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({
        "stamp": info,
        "result": {k: v for k, v in result.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "documents": [
            {"document": t, **{k: v for k, v in r.items() if k not in ("out", "trace")}}
            for t, r in run.records
        ],
        "failures": run.failures,
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
