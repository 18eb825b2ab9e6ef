"""Kernel probes and the import-time split, run in one fresh interpreter.

Usage: python3 probes.py SRC_DIR

Each probe times public meanderq functions on fixed inputs and checks what
they returned against the goldens.  Prints one JSON line:
{"metrics": {name: [value, unit]}, "problems": [...]}.

* partitions: all 135135 matchings of 14 points are enumerated, then each
  one's crossings and its join with ``rainbow(14)`` are taken, in chunks so
  the matchings are never all held at once.  The sums are checked against
  the Q_7 golden: sum of crossings = sum of u * c, sum of join blocks =
  sum of t * c.
* fock: one ``apply_semi_meander_operator`` on a fixed formal d=3 state,
  reported as input states per second, median of five.
* scalars: ``QPoly`` products and sums of neighbouring coefficients of that
  state, operations per second, median of five passes.
* spectra: the exact Chebyshev transform (``jacobi_from_moments`` with
  ``exact=True``) and the float quadrature on the exact d=2, q=1/2 moment
  sequence m_0..m_10, seconds per call, median of five batches.
* polynomials: P_5 time at ``jobs=1`` over P_5 time at ``jobs=2``; absent
  when ``meander_poly`` has no ``jobs`` parameter.
* import time: ``python3 -X importtime -c "import meanderq"``, median of
  five processes, cumulative for ``meanderq`` and for ``numpy``.
"""

import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks

CHUNK = 4096
REPEATS = 5
SPECTRA_BATCH = 20


def _timed(fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    return out, time.monotonic() - t0


def partition_probes(goldens: dict, problems: list) -> dict:
    from meanderq.partitions import block_count, crossings, enumerate_pair_partitions, join, rainbow

    count, enum_s = _timed(lambda: sum(1 for _ in enumerate_pair_partitions(7, cap=14)))
    rho = rainbow(14)
    cross_s = join_s = 0.0
    cross_sum = block_sum = 0
    chunk = []

    def flush():
        nonlocal cross_s, join_s, cross_sum, block_sum
        t0 = time.monotonic()
        cross_sum += sum(crossings(pi) for pi in chunk)
        t1 = time.monotonic()
        block_sum += sum(block_count(join(pi, rho)) for pi in chunk)
        cross_s += t1 - t0
        join_s += time.monotonic() - t1
        chunk.clear()

    for pi in enumerate_pair_partitions(7, cap=14):
        chunk.append(pi)
        if len(chunk) == CHUNK:
            flush()
    flush()

    q7 = checks.poly_terms(goldens[checks.SEMI_7])
    for what, got, want in (
        ("matchings of 14 points", count, sum(q7.values())),
        ("sum of crossings", cross_sum, sum(u * c for (_, u), c in q7.items())),
        ("sum of join blocks", block_sum, sum(t * c for (t, _), c in q7.items())),
    ):
        if got != want:
            problems.append(f"partitions probe: {what} {got}, Q_7 golden gives {want}")
    return {
        "partitions.matchings_per_s": (count / enum_s, "1/s"),
        "partitions.crossings_per_s": (count / cross_s, "1/s"),
        "partitions.join_per_s": (count / join_s, "1/s"),
    }


def fock_scalar_probes(goldens: dict, problems: list) -> dict:
    from meanderq.fock import FockVector, apply_semi_meander_operator

    # The state after three steps of the formal d=3, n=9 moment computation;
    # no word is pruned that early.  A fourth step yields m_4 at the vacuum.
    x = FockVector.vacuum(3, 18)
    for _ in range(3):
        x = apply_semi_meander_operator(x)
    step_times = []
    for _ in range(REPEATS):
        out, dt = _timed(apply_semi_meander_operator, x)
        step_times.append(dt)
    m4 = goldens[checks.FORMAL_T[3]]["moments"][4]["value"]["coeffs"]
    if out.vacuum_amplitude().coeff_strings() != m4:
        problems.append("fock probe: the fourth step's vacuum amplitude is not m_4")

    values = list(x.terms.values())
    pairs = list(zip(values, values[1:] + values[:1]))
    mul_times, add_times = [], []
    for _ in range(REPEATS):
        t0 = time.monotonic()
        products = [a * b for a, b in pairs]
        t1 = time.monotonic()
        sums = [a + b for a, b in pairs]
        mul_times.append(t1 - t0)
        add_times.append(time.monotonic() - t1)
    if sum(p.at(1) for p in products) != sum(a.at(1) * b.at(1) for a, b in pairs) or sum(
        s.at(1) for s in sums
    ) != 2 * sum(a.at(1) for a in values):
        problems.append("scalars probe: QPoly products or sums disagree at q=1")
    return {
        "fock.step_states_per_s": (len(x.terms) / statistics.median(step_times), "1/s"),
        "scalars.qpoly_mul_per_s": (len(pairs) / statistics.median(mul_times), "1/s"),
        "scalars.qpoly_add_per_s": (len(pairs) / statistics.median(add_times), "1/s"),
    }


def spectra_probes(goldens: dict, problems: list) -> dict:
    from meanderq.spectra import jacobi_from_moments, quadrature_from_jacobi, semi_meander_moments

    ms = semi_meander_moments(2, Fraction(1, 2), 10)
    exact_times, quad_times = [], []
    for _ in range(REPEATS):
        t0 = time.monotonic()
        for _ in range(SPECTRA_BATCH):
            rec = jacobi_from_moments(ms, exact=True)
        t1 = time.monotonic()
        for _ in range(SPECTRA_BATCH):
            quad = quadrature_from_jacobi(rec, rec.depth)
        exact_times.append((t1 - t0) / SPECTRA_BATCH)
        quad_times.append((time.monotonic() - t1) / SPECTRA_BATCH)
    q7 = checks.poly_terms(goldens[checks.SEMI_7])
    want = float(checks.eval_poly(checks.eval_at_t(q7, 2), Fraction(1, 2)))
    if abs(quad.moment(7) - want) > 1e-6 * abs(want):
        problems.append(f"spectra probe: quadrature m_7 {quad.moment(7)} != Q_7(2, 1/2) = {want}")
    return {
        "spectra.jacobi_exact_s": (statistics.median(exact_times), "s"),
        "spectra.quadrature_s": (statistics.median(quad_times), "s"),
    }


def jobs_probe(goldens: dict, problems: list) -> dict:
    from meanderq.polynomials import meander_poly

    if "jobs" not in inspect.signature(meander_poly).parameters:
        return {}
    p1, t1 = _timed(meander_poly, 5, jobs=1)
    p2, t2 = _timed(meander_poly, 5, jobs=2)
    want = checks.poly_terms(goldens[checks.MEANDER_5])
    if p1.terms != want or p2.terms != want:
        problems.append("polynomials probe: P_5 at jobs=1 or jobs=2 differs from the golden")
    return {"polynomials.jobs2_speedup": (t1 / t2, "ratio")}


def import_probe(src: str, problems: list) -> dict:
    """Cumulative import times from ``-X importtime``, median of REPEATS."""
    code = f"import sys; sys.path.insert(0, {src!r}); import meanderq"
    found = {"meanderq": [], "numpy": []}
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            problems.append(f"import probe: exit code {proc.returncode}")
            return {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found and parts[1].strip().isdigit():
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    if any(len(v) != REPEATS for v in found.values()):
        problems.append(f"import probe: expected one meanderq and one numpy line per run, got {found}")
        return {}
    return {
        "meanderq.import_s": (statistics.median(found["meanderq"]), "s"),
        "spectra.numpy_import_s": (statistics.median(found["numpy"]), "s"),
    }


def main() -> None:
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    import meanderq

    goldens = checks.load_goldens()
    problems = []
    if os.path.dirname(os.path.realpath(meanderq.__file__)) != os.path.join(src, "meanderq"):
        problems.append(f"meanderq imported from {meanderq.__file__}, not {src}")
    metrics = {}
    metrics.update(import_probe(src, problems))
    metrics.update(partition_probes(goldens, problems))
    metrics.update(fock_scalar_probes(goldens, problems))
    metrics.update(spectra_probes(goldens, problems))
    metrics.update(jobs_probe(goldens, problems))
    print(json.dumps({"metrics": metrics, "problems": problems}))


if __name__ == "__main__":
    main()
