"""Named verification suites driving the cross-route identities.

Each suite runs a family of exact checks and returns a machine-readable
report {"suite", "instances", "failures", "seed", ...}; randomized suites
echo their seed so a rerun with the same version of the package reproduces
the instances byte for byte.  A suite refuses, before its first instance, a
size whose objects exceed the enumeration budget.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from functools import wraps
from itertools import chain, product
from typing import Callable, Iterable, Iterator

from .dyck import (ONE, STAR, ChoiceTuple, DyckTuple, alternating_pattern, choice_bounds,
                   choices_to_partition, crossings_from_choices, enumerate_dyck,
                   partition_to_choices, to_lattice_path)
from .errors import ENUMERATION_BUDGET, check_size
from .fock import (FockVector, commutator_defect, meander_moment_direct, meander_moment_sweep,
                   semi_meander_moment_sweep)
from .partitions import (LEFT, RIGHT, IndexTuple, crossings, enumerate_pair_partitions,
                         odd_double_factorial)
from .polynomials import meander_poly, semi_meander_poly
from .qwick import (WickProduct, basis_wick_product, bnc_moment_q0, doubled_compatible_count,
                    doubled_compatible_count_bruteforce, wick_scalar_combinatorial,
                    wick_scalar_operator)
from .scalars import FORMAL, Mode

Outcome = Iterator["dict | None"]

SUITES: dict[str, Callable[..., dict]] = {}
# Compact aliases kept stable for scripted callers.
SUITE_ALIASES: dict[str, str] = {}


def _suite(name: str, alias: str | None = None):
    """Register a generator yielding one outcome per instance (None when the
    check holds, else its failure record) as the suite ``name``, and make it
    return the suite's report: the instance count, the first 20 failures in
    instance order, the failure count, and the seed if the suite takes one."""
    def register(checks: Callable[..., Outcome]) -> Callable[..., dict]:
        params = inspect.signature(checks).parameters

        @wraps(checks)
        def suite(**kwargs) -> dict:
            failures, instances = [], 0
            for instances, failure in enumerate(checks(**kwargs), start=1):
                if failure is not None:
                    failures.append(failure)
            report = {"schema_version": 1, "suite": name, "instances": instances,
                      "failures": failures[:20], "failure_count": len(failures)}
            if "seed" in params:
                report["seed"] = kwargs.get("seed", params["seed"].default)
            return report

        SUITES[name] = suite
        if alias:
            SUITE_ALIASES[alias] = name
        return suite
    return register


def _admit(n: int, counts: Iterable[int]) -> None:
    """Refuse a suite of order ``n`` (largest d for commutator) whose running
    ``counts`` of the objects it streams pass the enumeration budget."""
    check_size(n, None, counts, ENUMERATION_BUDGET, "verify takes no cap; lower --n or --d")


def _matchings(n: int, times: int = 1) -> Iterator[int]:
    """(2k-1)!! ``times``: the matchings of each order k <= n, counted once
    for each d, sample or coordinate that a suite streams them with."""
    return (times * odd_double_factorial(k) for k in range(1, n + 1))


def _random_rational_vector(rng: random.Random, d: int) -> tuple:
    return tuple(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)
    )


def _random_chi(rng: random.Random, two_n: int) -> tuple[str, ...]:
    return tuple(rng.choice((LEFT, RIGHT)) for _ in range(two_n))


def _cycle_lemma_dyck(symbols: list[str]) -> DyckTuple:
    """The Dyck word of an arrangement of n ones and n+1 stars (cycle lemma):
    rotate it to start just after the first minimum of its prefix height,
    which leaves a star last, and drop that star.  Each Dyck word comes from
    exactly 2n+1 arrangements, the rotations of the word with a star appended."""
    path = to_lattice_path(symbols)
    cut = path.index(min(path)) + 1
    return DyckTuple(symbols[cut:] + symbols[: cut - 1])


def _random_dyck(rng: random.Random, two_n: int) -> DyckTuple:
    """A uniform Dyck word of length two_n, from one shuffle."""
    symbols = [ONE] * (two_n // 2) + [STAR] * (two_n // 2 + 1)
    rng.shuffle(symbols)
    return _cycle_lemma_dyck(symbols)


@_suite("wick")
def suite_wick(n_max: int = 3, d: int = 2, chi_samples: int = 5,
               extra_instances: int = 200, extra_n: int = 4, seed: int = 0) -> Outcome:
    """Operator route == pairing-sum route, exhaustively over small flavor
    words and on seeded random instances.  The fibres of the flavor words of
    order n cover its (2n-1)!! matchings once per chi, each member drawing a
    d-coordinate vector per factor."""
    _admit(n_max, chain(_matchings(n_max, (1 + chi_samples) * d),
                        [extra_instances * odd_double_factorial(extra_n) * d]))
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for eps in enumerate_dyck(2 * n):
            chis = [alternating_pattern(2 * n)]
            chis += [_random_chi(rng, 2 * n) for _ in range(chi_samples)]
            for chi in chis:
                vectors = tuple(_random_rational_vector(rng, d) for _ in range(2 * n))
                wp = WickProduct(chi, eps.symbols, vectors)
                a = wick_scalar_operator(wp)
                b = wick_scalar_combinatorial(wp)
                yield {"eps": str(eps), "chi": "".join(chi)} if a != b else None
    for _ in range(extra_instances):
        eps = _random_dyck(rng, 2 * extra_n)
        chi = _random_chi(rng, 2 * extra_n)
        vectors = tuple(_random_rational_vector(rng, d) for _ in range(2 * extra_n))
        wp = WickProduct(chi, eps.symbols, vectors)
        failed = wick_scalar_operator(wp) != wick_scalar_combinatorial(wp)
        yield {"eps": str(eps), "chi": "".join(chi)} if failed else None


@_suite("semi-moments", "theorem14")
def suite_semi_moments(d_max: int = 3, n_max: int = 4) -> Outcome:
    """Operator moments == semi-meander polynomial values."""
    _admit(n_max, _matchings(n_max, d_max))
    sweeps = {d: semi_meander_moment_sweep(d, n_max) for d in range(1, d_max + 1)}
    for n in range(1, n_max + 1):
        poly = semi_meander_poly(n)
        for d in range(1, d_max + 1):
            op = sweeps[d][n]
            val = poly.eval_at_t(d)
            yield {"d": d, "n": n, "operator": str(op), "poly": str(val)} if op != val else None


@_suite("meander-moments", "prop18")
def suite_meander_moments(d_max: int = 2, n_max: int = 3) -> Outcome:
    """Doubled-operator moments == meander polynomial values == the
    index-tuple sum of squared joint moments (``meander_moment_direct``)."""
    _admit(n_max, (max(m * m, d_max ** (2 * n)) for n, m in enumerate(_matchings(n_max), 1)))
    sweeps = {d: meander_moment_sweep(d, n_max) for d in range(1, d_max + 1)}
    for n in range(1, n_max + 1):
        poly = meander_poly(n)
        for d in range(1, d_max + 1):
            op = sweeps[d][n]
            val = poly.eval_at_t(d)
            ok = op == val == meander_moment_direct(d, n)
            yield {"d": d, "n": n, "operator": str(op), "poly": str(val)} if not ok else None


@_suite("crossing-formula", "prop310")
def suite_crossing_formula(n_max: int = 4, random_n: int = 6,
                           random_count: int = 2000, seed: int = 0) -> Outcome:
    """sum(gamma_h - 1) == crossing number: exhaustively for the alternating
    pattern, then on random (eps, gamma, chi) triples."""
    _admit(n_max, _matchings(n_max))
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for pi in enumerate_pair_partitions(n):
            ct = partition_to_choices(pi)
            yield {"pi": pi.to_lists()} if crossings_from_choices(ct) != crossings(pi) else None
    for _ in range(random_count):
        eps = _random_dyck(rng, 2 * random_n)
        chi = _random_chi(rng, 2 * random_n)
        gammas = [rng.randint(1, c) if s == STAR else 1
                  for s, c in zip(eps.symbols, choice_bounds(eps))]
        ct = ChoiceTuple(gammas, eps)
        pi = choices_to_partition(ct, chi)
        failed = crossings_from_choices(ct) != crossings(pi)
        yield {"eps": str(eps), "chi": "".join(chi), "gammas": gammas} if failed else None


def _tuples(d: int, n_max: int) -> Iterator[int]:
    """(2n-1)!! d^(2n): the matchings of each order n <= n_max, each against
    every index tuple."""
    return (m * d ** (2 * n) for n, m in enumerate(_matchings(n_max), 1))


@_suite("pair-counting", "lemma415")
def suite_pair_counting(d: int = 2, n_max: int = 4) -> Outcome:
    """Closed-form tuple count == literal brute force, all matchings."""
    _admit(n_max, _tuples(d, n_max))
    for n in range(1, n_max + 1):
        for pi in enumerate_pair_partitions(n):
            expected = doubled_compatible_count(pi, d)
            actual = doubled_compatible_count_bruteforce(pi, d)
            failed = expected != actual
            yield {"pi": pi.to_lists(), "formula": expected, "brute": actual} if failed else None


@_suite("restricted-wick", "cor412")
def suite_restricted_wick(n_max: int = 3, d: int = 2) -> Outcome:
    """Pairing sums on basis vectors (the fibre restricted to the index
    tuple) == vacuum expectations, for all flavor words and index tuples."""
    _admit(n_max, _tuples(d, n_max))
    for n in range(1, n_max + 1):
        for eps in enumerate_dyck(2 * n):
            for values in product(range(1, d + 1), repeat=2 * n):
                wp = basis_wick_product(IndexTuple(values, d), eps.symbols)
                failed = wick_scalar_combinatorial(wp) != wick_scalar_operator(wp)
                yield {"eps": str(eps), "I": list(values)} if failed else None


@_suite("commutator")
def suite_commutator(d_max: int = 2, len_max: int = 4,
                     float_trials: int = 25, seed: int = 0) -> Outcome:
    """Exact vanishing on basis words with rational vectors; vanishing within
    1e-12 with complex vectors in floating mode."""
    _admit(d_max, ((len_max + 1) * d**len_max * 16 for d in range(1, d_max + 1)))
    rng = random.Random(seed)
    rational_vectors = {
        1: [(Fraction(1),), (Fraction(-2, 3),)],
        2: [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(1)),
            (Fraction(1, 2), Fraction(-3)),
        ],
    }
    for d in range(1, d_max + 1):
        words = [()]
        frontier = [()]
        for _ in range(len_max):
            frontier = [w + (i,) for w in frontier for i in range(1, d + 1)]
            words += frontier
        vecs = rational_vectors.get(d) or [_random_rational_vector(rng, d) for _ in range(3)]
        for word in words:
            for v in vecs:
                for w in vecs:
                    x = FockVector(d, FORMAL, {word: FORMAL.one()})
                    failed = not commutator_defect(v, w, x).is_zero()
                    yield {"word": list(word), "v": str(v), "w": str(w)} if failed else None
    mode = Mode(0.5)
    for _ in range(float_trials):
        d = rng.randint(min(2, d_max), d_max)
        v = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
        w = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
        length = rng.randint(0, 4)
        word = tuple(rng.randint(1, d) for _ in range(length))
        x = FockVector(d, mode, {word: 1.0})
        failed = commutator_defect(v, w, x).max_abs() > 1e-12
        yield {"word": list(word), "mode": "float"} if failed else None


@_suite("bnc-q0", "q0bnc")
def suite_bnc_q0(d_max: int = 3, n_max: int = 5) -> Outcome:
    """Undeformed moments: operator route == u=0 polynomial == bi-non-crossing
    sum."""
    _admit(n_max, _matchings(n_max, d_max))
    q0 = Mode(Fraction(0))
    sweeps = {d: semi_meander_moment_sweep(d, n_max, q0) for d in range(1, d_max + 1)}
    for n in range(1, n_max + 1):
        poly = semi_meander_poly(n)
        for d in range(1, d_max + 1):
            op = sweeps[d][n]
            qn = poly.eval(d, 0)
            bnc = bnc_moment_q0(d, n)
            failed = not (op == qn == bnc)
            yield {"d": d, "n": n, "op": str(op), "poly": str(qn), "bnc": bnc} if failed else None


def run_suite(name: str, n: int | None = None, d: int | None = None,
              seed: int | None = None) -> dict:
    """Dispatch a suite by name (or alias), overriding its main size knobs:
    --n sets its n or n_max, --d its d or d_max and --seed its seed.  A knob
    left as None keeps the suite's default; a knob the suite does not take
    raises ValueError rather than being ignored."""
    canonical = SUITE_ALIASES.get(name, name)
    if canonical not in SUITES:
        raise KeyError(name)
    params = inspect.signature(SUITES[canonical]).parameters
    knobs = {k: p for k in ("n", "d", "seed") for p in (k, f"{k}_max") if p in params}
    provided = {"n": n, "d": d, "seed": seed}
    unused = sorted(k for k, v in provided.items() if v is not None and k not in knobs)
    if unused:
        raise ValueError(f"suite {name!r} takes no {', '.join('--' + k for k in unused)}")
    report = SUITES[canonical](**{knobs[k]: v for k, v in provided.items() if v is not None})
    report["suite"] = name
    return report
