"""Named verification suites driving the cross-route identities.

Each suite runs a family of exact checks and returns a machine-readable
report {"suite", "instances", "failures", "seed", ...}; randomized suites
echo their seed so a rerun reproduces the instances byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .dyck import (
    ChoiceTuple,
    DyckTuple,
    alternating_pattern,
    choice_number,
    choices_to_partition,
    crossings_from_choices,
    enumerate_dyck,
    partition_to_choices,
)
from .fock import (
    FockVector,
    _canonical_pattern,
    commutator_defect,
    gaussian_joint_moment,
    meander_moment,
    meander_moment_direct,
    semi_meander_moment,
)
from .partitions import (
    LEFT,
    RIGHT,
    IndexTuple,
    crossings,
    enumerate_pair_partitions,
)
from .polynomials import meander_poly, semi_meander_poly
from .qwick import (
    WickProduct,
    basis_wick_product,
    bnc_moment_q0,
    compatible_crossing_sum,
    doubled_compatible_count,
    doubled_compatible_count_bruteforce,
    wick_scalar_combinatorial,
    wick_scalar_operator,
)
from .scalars import FORMAL, Mode
from itertools import product


def _report(suite: str, instances: int, failures: list, seed: int | None = None) -> dict:
    out = {
        "schema_version": 1,
        "suite": suite,
        "instances": instances,
        "failures": failures[:20],
        "failure_count": len(failures),
    }
    if seed is not None:
        out["seed"] = seed
    return out


def _random_rational_vector(rng: random.Random, d: int) -> tuple:
    return tuple(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)
    )


def _random_chi(rng: random.Random, two_n: int) -> tuple[str, ...]:
    return tuple(rng.choice((LEFT, RIGHT)) for _ in range(two_n))


def _random_dyck(rng: random.Random, two_n: int) -> DyckTuple:
    symbols = ["1"] * (two_n // 2) + ["*"] * (two_n // 2)
    while True:
        rng.shuffle(symbols)
        try:
            return DyckTuple(symbols)
        except ValueError:
            continue


def suite_wick(n_max: int = 3, d: int = 2, chi_samples: int = 5,
               extra_instances: int = 200, extra_n: int = 4, seed: int = 0) -> dict:
    """Operator route == pairing-sum route, exhaustively over small flavor
    words and on seeded random instances."""
    rng = random.Random(seed)
    failures = []
    instances = 0
    for n in range(1, n_max + 1):
        for eps in enumerate_dyck(2 * n):
            chis = [alternating_pattern(2 * n)]
            chis += [_random_chi(rng, 2 * n) for _ in range(chi_samples)]
            for chi in chis:
                vectors = tuple(_random_rational_vector(rng, d) for _ in range(2 * n))
                wp = WickProduct(chi, eps.symbols, vectors)
                instances += 1
                a = wick_scalar_operator(wp)
                b = wick_scalar_combinatorial(wp)
                if a != b:
                    failures.append({"eps": str(eps), "chi": "".join(chi)})
    for _ in range(extra_instances):
        eps = _random_dyck(rng, 2 * extra_n)
        chi = _random_chi(rng, 2 * extra_n)
        vectors = tuple(_random_rational_vector(rng, d) for _ in range(2 * extra_n))
        wp = WickProduct(chi, eps.symbols, vectors)
        instances += 1
        if wick_scalar_operator(wp) != wick_scalar_combinatorial(wp):
            failures.append({"eps": str(eps), "chi": "".join(chi)})
    return _report("wick", instances, failures, seed)


def suite_semi_moments(d_max: int = 3, n_max: int = 4) -> dict:
    """Operator moments == semi-meander polynomial values."""
    failures = []
    instances = 0
    for n in range(1, n_max + 1):
        poly = semi_meander_poly(n)
        for d in range(1, d_max + 1):
            instances += 1
            op = semi_meander_moment(d, n)
            val = poly.eval_at_t(d)
            if op != val:
                failures.append({"d": d, "n": n, "operator": str(op), "poly": str(val)})
    return _report("semi-moments", instances, failures)


def _pattern_meander_moment(d: int, n: int):
    """Oracle for the doubled-space sweep, on the single space only: the sum
    over all d^(2n) index tuples of the squared joint moment, memoised by the
    level-set pattern of the tuple, which is all a joint moment depends on."""
    memo: dict[tuple[int, ...], object] = {}
    total = FORMAL.zero()
    for values in product(range(1, d + 1), repeat=2 * n):
        (key,) = _canonical_pattern(values)
        if key not in memo:
            memo[key] = gaussian_joint_moment(IndexTuple(key, d))
        m = memo[key]
        total = total + m * m
    return total


def suite_meander_moments(d_max: int = 2, n_max: int = 3) -> dict:
    """Doubled-operator moments == meander polynomial values == the
    index-tuple sum of squared joint moments, with the unpruned doubled
    route cross-checked at n <= 2."""
    failures = []
    instances = 0
    for n in range(1, n_max + 1):
        poly = meander_poly(n)
        for d in range(1, d_max + 1):
            instances += 1
            op = meander_moment(d, n)
            val = poly.eval_at_t(d)
            ok = op == val == _pattern_meander_moment(d, n)
            if n <= 2:
                ok = ok and meander_moment_direct(d, n) == val
            if not ok:
                failures.append({"d": d, "n": n, "operator": str(op), "poly": str(val)})
    return _report("meander-moments", instances, failures)


def suite_crossing_formula(n_max: int = 4, random_n: int = 6,
                           random_count: int = 2000, seed: int = 0) -> dict:
    """sum(gamma_h - 1) == crossing number: exhaustively for the alternating
    pattern, then on random (eps, gamma, chi) triples."""
    rng = random.Random(seed)
    failures = []
    instances = 0
    for n in range(1, n_max + 1):
        for pi in enumerate_pair_partitions(n):
            instances += 1
            ct = partition_to_choices(pi)
            if crossings_from_choices(ct) != crossings(pi):
                failures.append({"pi": pi.to_lists()})
    for _ in range(random_count):
        eps = _random_dyck(rng, 2 * random_n)
        chi = _random_chi(rng, 2 * random_n)
        gammas = [1] * eps.size
        for h in eps.star_heights():
            gammas[h - 1] = rng.randint(1, choice_number(eps, h))
        ct = ChoiceTuple(gammas, eps)
        pi = choices_to_partition(ct, chi)
        instances += 1
        if crossings_from_choices(ct) != crossings(pi):
            failures.append({"eps": str(eps), "chi": "".join(chi), "gammas": gammas})
    return _report("crossing-formula", instances, failures, seed)


def suite_pair_counting(d: int = 2, n_max: int = 4) -> dict:
    """Closed-form tuple count == literal brute force, all matchings."""
    failures = []
    instances = 0
    for n in range(1, n_max + 1):
        for pi in enumerate_pair_partitions(n):
            instances += 1
            expected = doubled_compatible_count(pi, d)
            actual = doubled_compatible_count_bruteforce(pi, d)
            if expected != actual:
                failures.append({"pi": pi.to_lists(), "formula": expected, "brute": actual})
    return _report("pair-counting", instances, failures)


def suite_restricted_wick(n_max: int = 3, d: int = 2) -> dict:
    """Compatible-crossing sums == basis-vector vacuum expectations, for all
    flavor words and all index tuples."""
    failures = []
    instances = 0
    for n in range(1, n_max + 1):
        for eps in enumerate_dyck(2 * n):
            for values in product(range(1, d + 1), repeat=2 * n):
                index = IndexTuple(values, d)
                instances += 1
                comb = compatible_crossing_sum(index, eps)
                op = wick_scalar_operator(basis_wick_product(index, eps.symbols))
                if comb != op:
                    failures.append({"eps": str(eps), "I": list(values)})
    return _report("restricted-wick", instances, failures)


def suite_commutator(d_max: int = 2, len_max: int = 4,
                     float_trials: int = 25, seed: int = 0) -> dict:
    """Exact vanishing on basis words with rational vectors; vanishing within
    1e-12 with complex vectors in floating mode."""
    rng = random.Random(seed)
    failures = []
    instances = 0
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
                    instances += 1
                    x = FockVector(d, len(word), FORMAL, {word: FORMAL.one()})
                    if not commutator_defect(v, w, x).is_zero():
                        failures.append({"word": list(word), "v": str(v), "w": str(w)})
    mode = Mode(0.5)
    for _ in range(float_trials):
        d = rng.randint(2, max(2, d_max))
        v = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
        w = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
        length = rng.randint(0, 4)
        word = tuple(rng.randint(1, d) for _ in range(length))
        x = FockVector(d, length, mode, {word: 1.0})
        instances += 1
        if commutator_defect(v, w, x).max_abs() > 1e-12:
            failures.append({"word": list(word), "mode": "float"})
    return _report("commutator", instances, failures, seed)


def suite_bnc_q0(d_max: int = 3, n_max: int = 5) -> dict:
    """Undeformed moments: operator route == u=0 polynomial == bi-non-crossing
    sum."""
    failures = []
    instances = 0
    q0 = Mode(Fraction(0))
    for n in range(1, n_max + 1):
        poly = semi_meander_poly(n)
        for d in range(1, d_max + 1):
            instances += 1
            op = semi_meander_moment(d, n, q0)
            qn = poly.eval(d, 0)
            bnc = bnc_moment_q0(d, n)
            if not (op == qn == bnc):
                failures.append({"d": d, "n": n, "op": str(op), "poly": str(qn), "bnc": bnc})
    return _report("bnc-q0", instances, failures)


SUITES = {
    "wick": suite_wick,
    "semi-moments": suite_semi_moments,
    "meander-moments": suite_meander_moments,
    "crossing-formula": suite_crossing_formula,
    "pair-counting": suite_pair_counting,
    "restricted-wick": suite_restricted_wick,
    "commutator": suite_commutator,
    "bnc-q0": suite_bnc_q0,
}

# Compact aliases kept stable for scripted callers.
SUITE_ALIASES = {
    "theorem14": "semi-moments",
    "prop18": "meander-moments",
    "prop310": "crossing-formula",
    "lemma415": "pair-counting",
    "cor412": "restricted-wick",
    "q0bnc": "bnc-q0",
}


# Which CLI knobs each suite accepts, and the parameter they map onto.
_SUITE_KNOBS = {
    "wick": {"n": "n_max", "d": "d", "seed": "seed"},
    "semi-moments": {"n": "n_max", "d": "d_max"},
    "meander-moments": {"n": "n_max", "d": "d_max"},
    "crossing-formula": {"n": "n_max", "seed": "seed"},
    "pair-counting": {"n": "n_max", "d": "d"},
    "restricted-wick": {"n": "n_max", "d": "d"},
    "commutator": {"d": "d_max", "seed": "seed"},
    "bnc-q0": {"n": "n_max", "d": "d_max"},
}


def run_suite(name: str, n: int | None = None, d: int | None = None,
              seed: int | None = None) -> dict:
    """Dispatch a suite by name (or alias), overriding its main size knobs.
    A knob left as None keeps the suite's default; a knob the suite does not
    take raises ValueError rather than being ignored."""
    canonical = SUITE_ALIASES.get(name, name)
    if canonical not in SUITES:
        raise KeyError(name)
    provided = {"n": n, "d": d, "seed": seed}
    knobs = _SUITE_KNOBS[canonical]
    unused = sorted(k for k, v in provided.items() if v is not None and k not in knobs)
    if unused:
        raise ValueError(f"suite {name!r} takes no {', '.join('--' + k for k in unused)}")
    kwargs = {knobs[k]: v for k, v in provided.items() if v is not None}
    report = SUITES[canonical](**kwargs)
    report["suite"] = name
    return report
