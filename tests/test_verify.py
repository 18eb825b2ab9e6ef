import pytest

from meanderq.verify import run_suite, suite_meander_moments, suite_semi_moments


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
