"""Output checks: each document against its golden, and the goldens against
identities that do not come from the code that produced them.

Goldens (``golden.json``) map a document template, the CLI arguments with
``{seed}`` where the workload seed goes, to the JSON document the seed code
printed.  A document passes when its exit code is 0 and it equals the golden
with ``seed`` filled in: exactly, except that the floating-point spectrum
fields (``nodes``, ``weights``, ``min_eigenvalue``) may differ by the
relative tolerance REL_TOL.  The verify documents carry ``instances`` and
``failure_count``, so a weaker suite or a failed check is a mismatch.
"""

import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

REL_TOL = 1e-6
ABS_TOL = 1e-12
FLOAT_FIELDS = frozenset({"nodes", "weights", "min_eigenvalue"})

SEMI_7 = "poly --kind semi --n 7 --jobs 1"
MEANDER_5 = "poly --kind meander --n 5 --jobs 1"
FORMAL_T = {3: "moments --operator T --d 3 --n 9 --cap 9", 4: "moments --operator T --d 4 --n 8 --cap 8"}
RATIONAL_X = "moments --operator X --d 2 --q 1/2 --n 5 --cap 5"
SPECTRA = {(3, Fraction(1, 2)): "spectrum --d 3 --q 1/2 --n 10", (2, Fraction(1, 2)): "spectrum --d 2 --q 0.5 --n 12"}

# Instances each suite reported at the seed code; they sum to 3426.
VERIFY_INSTANCES = {
    "wick": 248, "semi-moments": 12, "meander-moments": 6, "crossing-formula": 2124,
    "pair-counting": 124, "restricted-wick": 356, "commutator": 541, "bnc-q0": 15,
}


def double_factorial(k: int) -> int:
    out = 1
    for j in range(k, 1, -2):
        out *= j
    return out


def poly_terms(doc: dict) -> dict:
    return {(t["t"], t["u"]): int(t["c"]) for t in doc["terms"]}


def eval_at_t(terms: dict, t) -> list:
    """Coefficients in u of P(t, u) at a fixed t, ascending."""
    out = [0] * (max(u for _, u in terms) + 1)
    for (k, u), c in terms.items():
        out[u] += c * t**k
    return out


def eval_poly(coeffs: list, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def validate_goldens(goldens: dict) -> list:
    """Problems found checking the goldens against published counts and
    against each other (enumeration versus operator moments)."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"golden {what}: {got} != {want}")

    q7 = poly_terms(goldens[SEMI_7])
    expect("Q_7 total (13!!)", sum(q7.values()), double_factorial(13))
    expect("Q_7 one-curve u=0 coefficient (A000682)", q7.get((1, 0)), 66)
    p5 = poly_terms(goldens[MEANDER_5])
    expect("P_5 total ((9!!)^2)", sum(p5.values()), double_factorial(9) ** 2)
    expect("P_5 one-curve u=0 coefficient (A005315)", p5.get((1, 0)), 262)

    # Semi-meander moments are Q_n(d, q): m_7 of the formal T tables.
    for d, key in FORMAL_T.items():
        m7 = goldens[key]["moments"][7]["value"]["coeffs"]
        expect(f"formal m_7 at d={d} vs Q_7(t={d})", [int(c) for c in m7], eval_at_t(q7, d))
    # Meander moments are P_n(d, q): m_5 at d=2, q=1/2.
    m5 = Fraction(goldens[RATIONAL_X]["moments"][5]["value"])
    expect("rational X m_5 vs P_5(2, 1/2)", m5, eval_poly(eval_at_t(p5, 2), Fraction(1, 2)))
    # The quadrature rules reproduce m_7 = Q_7(d, q) (2k > 7 nodes' worth).
    for (d, q), key in SPECTRA.items():
        doc = goldens[key]
        if doc["reproduced_moments"] <= 7:
            problems.append(f"golden {key}: quadrature reproduces too few moments")
            continue
        got = sum(w * x**7 for x, w in zip(doc["nodes"], doc["weights"]))
        want = float(eval_poly(eval_at_t(q7, d), q))
        if abs(got - want) > 1e-6 * abs(want):
            problems.append(f"golden {key}: quadrature m_7 {got} != Q_7({d}, {q}) = {want}")

    suites = {doc["suite"]: doc for key, doc in goldens.items() if key.startswith("verify ")}
    expect("verify suites", sorted(suites), sorted(VERIFY_INSTANCES))
    for name, doc in suites.items():
        expect(f"{name} instances", doc["instances"], VERIFY_INSTANCES.get(name))
        expect(f"{name} failure_count", doc["failure_count"], 0)
    expect("verify instances total", sum(d["instances"] for d in suites.values()), 3426)
    return problems


def load_goldens() -> dict:
    goldens = json.loads(GOLDEN_PATH.read_text())
    problems = validate_goldens(goldens)
    if problems:
        raise ValueError("; ".join(problems))
    return goldens


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def compare(want, got, path: str = "", tolerant: bool = False) -> list:
    """Differences between two JSON values, as readable strings."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path or '/'}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for k in want:
            out += compare(want[k], got[k], f"{path}/{k}", tolerant or k in FLOAT_FIELDS)
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (a, b) in enumerate(zip(want, got)):
            out += compare(a, b, f"{path}/{i}", tolerant)
        return out
    if tolerant and type(want) is float and type(got) is float:
        return [] if _close(want, got) else [f"{path}: {got!r} != {want!r} (rel tol {REL_TOL})"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def expected_document(goldens: dict, template: str, seed: int) -> dict:
    doc = dict(goldens[template])
    if "{seed}" in template:
        doc["seed"] = seed
    return doc


def check_document(goldens: dict, template: str, seed: int, rc, text: str) -> list:
    """Problems with one document's exit code and output; empty when it passes."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        doc = json.loads(text)
    except ValueError:
        return problems + ["output is not one JSON document"]
    return problems + compare(expected_document(goldens, template, seed), doc)
