import inspect
import json
import random
import time
from collections import Counter
from itertools import combinations

import pytest

import meanderq.verify as verify
from meanderq.cli import main
from meanderq.dyck import ONE, STAR, enumerate_dyck
from meanderq.errors import EnumerationCapError
from meanderq.partitions import catalan, crossings, enumerate_pair_partitions
from meanderq.verify import (
    SUITE_ALIASES,
    SUITES,
    _cycle_lemma_dyck,
    _random_dyck,
    run_suite,
    suite_meander_moments,
    suite_semi_moments,
)


@pytest.mark.parametrize(
    "suite,instances", [(suite_semi_moments, 12), (suite_meander_moments, 6)]
)
def test_moment_suites_at_defaults(suite, instances):
    report = suite()
    assert report["failures"] == []
    assert report["failure_count"] == 0
    assert report["instances"] == instances


def test_run_suite_rejects_unused_knob():
    with pytest.raises(ValueError, match="--seed"):
        run_suite("semi-moments", seed=3)
    assert run_suite("semi-moments", d=1, n=2)["instances"] == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_cycle_lemma_hits_every_dyck_word_2n_plus_1_times(n):
    hits = Counter()
    for stars in combinations(range(2 * n + 1), n + 1):
        symbols = [STAR if i in stars else ONE for i in range(2 * n + 1)]
        hits[_cycle_lemma_dyck(symbols)] += 1
    assert set(hits) == set(enumerate_dyck(2 * n))
    assert len(hits) == catalan(n)
    assert set(hits.values()) == {2 * n + 1}


def test_random_dyck_draws_a_dyck_word_per_shuffle():
    rng = random.Random(0)
    words = {_random_dyck(rng, 6) for _ in range(200)}
    assert words == set(enumerate_dyck(6))


def test_every_alias_names_a_suite():
    assert sorted(SUITES) == sorted([
        "wick", "semi-moments", "meander-moments", "crossing-formula",
        "pair-counting", "restricted-wick", "commutator", "bnc-q0"])
    assert SUITE_ALIASES == {
        "theorem14": "semi-moments", "prop18": "meander-moments",
        "prop310": "crossing-formula", "lemma415": "pair-counting",
        "cor412": "restricted-wick", "q0bnc": "bnc-q0"}


def test_report_keeps_the_first_20_failures_in_instance_order(capsys, monkeypatch):
    # crossings off by one on the 105 matchings of 8 points: every one of
    # them fails the exhaustive part of crossing-formula, nothing else does
    monkeypatch.setattr(verify, "crossings", lambda pi: crossings(pi) + (len(pi.pairs) == 4))
    assert main(["verify", "--suite", "prop310", "--seed", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "prop310"
    assert report["instances"] == 1 + 3 + 15 + 105 + 2000
    assert report["failure_count"] == 105
    assert report["failures"] == [
        {"pi": pi.to_lists()} for pi in list(enumerate_pair_partitions(4))[:20]]
    assert report["seed"] == 3


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_refusal_does_no_work(suite, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused suite started work")

    for name in ["enumerate_dyck", "enumerate_pair_partitions", "semi_meander_poly",
                 "meander_poly", "semi_meander_moment_sweep", "meander_moment_sweep",
                 "wick_scalar_operator", "FockVector", "commutator_defect"]:
        monkeypatch.setattr(verify, name, no_work)
    params = inspect.signature(SUITES[suite]).parameters
    knobs = [k for k in ("n", "d") if k in params or f"{k}_max" in params]
    assert knobs
    for knob in knobs:
        start = time.monotonic()
        assert main(["verify", "--suite", suite, f"--{knob}", "1000000"]) == 2
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        assert "budget" in err
        assert "--cap" not in err


def test_commutator_trials_stay_within_the_alphabet(capsys, monkeypatch):
    # at --d 1 the float trials, like the exact ones, act on one letter
    seen, defect = Counter(), verify.commutator_defect

    def recording(v, w, x):
        seen[x.d] += 1
        return defect(v, w, x)

    monkeypatch.setattr(verify, "commutator_defect", recording)
    assert main(["verify", "--suite", "commutator", "--d", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["instances"] == seen[1] == sum(seen.values())


@pytest.mark.parametrize("suite,kwargs,counts", [
    ("semi-moments", {"n_max": 3}, [1 * 3, 3 * 3, 15 * 3]),
    ("bnc-q0", {"n_max": 3}, [1 * 3, 3 * 3, 15 * 3]),
    ("crossing-formula", {"n_max": 3}, [1, 3, 15]),
    ("wick", {"n_max": 2, "extra_n": 3}, [6 * 1 * 2, 6 * 3 * 2, 200 * 15 * 2]),
    ("meander-moments", {"n_max": 4, "d_max": 2}, [2**2, 2**4, 15**2, 105**2]),
    ("pair-counting", {"n_max": 2, "d": 3}, [1 * 3**2, 3 * 3**4]),
    ("restricted-wick", {"n_max": 2, "d": 3}, [1 * 3**2, 3 * 3**4]),
    ("commutator", {"d_max": 3, "len_max": 2}, [3 * 1 * 16, 3 * 4 * 16, 3 * 9 * 16]),
])
def test_each_suite_counts_what_it_streams(suite, kwargs, counts, monkeypatch):
    """The running counts a suite checks against the budget before its first
    instance: (2k-1)!! matchings per order k, times d_max for the suites
    that sum them at each d <= d_max, times (1 + chi_samples) d for wick,
    which draws d coordinates per factor, times d^(2k) index tuples for the
    tuple suites, and the larger of (2k-1)!!^2 and d^(2k) for
    meander-moments."""
    def counted(n, cap, size, budget, hint):
        raise EnumerationCapError(list(size))

    monkeypatch.setattr(verify, "check_size", counted)
    with pytest.raises(EnumerationCapError) as exc:
        SUITES[suite](**kwargs)
    assert exc.value.args[0] == counts


def test_semi_moments_keep_their_boundary():
    verify._admit(8, verify._matchings(8))
    with pytest.raises(EnumerationCapError):
        verify._admit(9, verify._matchings(9))
    # one sum of the matchings per d <= d_max: --n 8 needs --d 1, and the
    # default d_max 3 admits --n 7
    verify._admit(7, verify._matchings(7, 3))
    with pytest.raises(EnumerationCapError):
        verify._admit(8, verify._matchings(8, 2))


# The flag sets of the verify-suites benchmark workload and the instances
# each runs: a suite made faster by checking less fails here.
BENCHMARK_SUITES = {
    "wick --d 2 --seed {seed}": 248, "semi-moments --d 3": 12, "meander-moments --d 2": 6,
    "crossing-formula --seed {seed}": 2124, "pair-counting --d 2": 124,
    "restricted-wick --d 2": 356, "commutator --d 2 --seed {seed}": 541, "bnc-q0 --d 3": 15,
}
BENCHMARK_CASES = [
    pytest.param(doc.split()[0], doc.split()[1:], count, id=doc)
    for flags, count in BENCHMARK_SUITES.items()
    for doc in dict.fromkeys(flags.format(seed=seed) for seed in (0, 1))
]


@pytest.mark.parametrize("suite,argv,instances", [
    ("restricted-wick", ["--n", "4", "--d", "1"], 22),
    ("wick", ["--n", "4", "--d", "1"], 332),
    # the float trials stay on word-level states with complex coordinates
    ("commutator", ["--d", "2", "--seed", "0"], 541),
    *BENCHMARK_CASES,
])
def test_the_budget_admits_these_sizes(suite, argv, instances, capsys):
    assert main(["verify", "--suite", suite, *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == instances
    assert report["failure_count"] == 0
