import random
from collections import Counter
from itertools import combinations

import pytest

from meanderq.dyck import ONE, STAR, enumerate_dyck
from meanderq.partitions import catalan
from meanderq.verify import (
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
