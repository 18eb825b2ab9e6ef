import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from meanderq.cli import main
from meanderq.dyck import enumerate_bnc2_alternating, enumerate_dyck
from meanderq.partitions import enumerate_noncrossing, enumerate_pair_partitions
from meanderq.polynomials import meander_poly, poly_json_doc, semi_meander_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_semi_n2_json(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--kind", "semi", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "schema_version": 1,
            "n": 2,
            "kind": "semi",
            "terms": [
                {"t": 1, "u": 0, "c": "1"},
                {"t": 1, "u": 1, "c": "1"},
                {"t": 2, "u": 0, "c": "1"},
            ],
        }

    def test_meander_n1(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--kind", "meander", "--n", "1")
        assert code == 0
        assert json.loads(out)["terms"] == [{"t": 1, "u": 0, "c": "1"}]

    def test_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--kind", "semi", "--n", "2",
                               "--format", "pretty")
        assert code == 0
        assert out.strip() == "t*(1 + u) + t^2"

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--kind", "semi", "--n", "2",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k\\l,0,1,row_sum"

    def test_usage_error_n0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--kind", "semi", "--n", "0"])
        assert exc.value.code == 2

    def test_cap_error_exit2(self, capsys):
        code, _, err = run_cli(capsys, "poly", "--kind", "semi", "--n", "15")
        assert code == 2
        assert "cap" in err

    def test_cap_override(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--kind", "meander", "--n", "2",
                               "--cap", "2")
        assert code == 0

    def test_jobs_takes_only_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--kind", "meander", "--n", "2", "--jobs", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        plain = run_cli(capsys, "poly", "--kind", "meander", "--n", "3")
        assert run_cli(capsys, "poly", "--kind", "meander", "--n", "3", "--jobs", "1") == plain

    @pytest.mark.parametrize("kind,last", [("semi", 7), ("meander", 5)])
    def test_documents_match_the_enumeration(self, capsys, kind, last):
        # poly reads the sweep; the enumeration is its independent oracle
        enumerate_poly = semi_meander_poly if kind == "semi" else meander_poly
        for n in range(1, last + 1):
            p = enumerate_poly(n)
            expected = {
                "json": json.dumps(poly_json_doc(p, kind, n), separators=(",", ":")) + "\n",
                "csv": p.to_csv(),
                "pretty": f"{p}\n",
            }
            for fmt, text in expected.items():
                argv = ["poly", "--kind", kind, "--n", str(n), "--format", fmt]
                assert run_cli(capsys, *argv) == (0, text, ""), (kind, n, fmt)


class TestMoments:
    def test_formal_semi(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--operator", "T", "--d", "2",
                               "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == "formal"
        assert doc["moments"][1] == {"n": 1, "value": {"coeffs": ["2"]}}
        assert doc["moments"][2] == {"n": 2, "value": {"coeffs": ["6", "2"]}}

    def test_formal_meander(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--operator", "X", "--d", "1",
                               "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["moments"][2]["value"] == {"coeffs": ["4", "4", "1"]}

    def test_rational_q(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--operator", "T", "--d", "2",
                               "--n", "2", "--q", "1/2")
        doc = json.loads(out)
        assert doc["q"] == "1/2"
        assert doc["moments"][2]["value"] == "7"

    def test_float_q(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--operator", "T", "--d", "2",
                               "--n", "2", "--q", "0.5")
        doc = json.loads(out)
        assert doc["q"] == 0.5
        assert doc["moments"][2]["value"] == pytest.approx(7.0)

    def test_decimal_q_prints_the_exact_values_rounded_once(self, capsys):
        argv = ["moments", "--operator", "T", "--d", "2", "--n", "6", "--q"]
        decimal = json.loads(run_cli(capsys, *argv, "0.5")[1])
        exact = json.loads(run_cli(capsys, *argv, "1/2")[1])
        assert decimal["q"] == 0.5 and exact["q"] == "1/2"
        values = [m["value"] for m in decimal["moments"]]
        assert all(type(v) is float for v in values)
        assert values == [float(Fraction(m["value"])) for m in exact["moments"]]
        assert values[3] == 30.5

    @pytest.mark.parametrize("command", ["moments --d 1 --n 2", "spectrum --n 2"])
    def test_negative_q_joined_to_its_flag(self, command, capsys):
        # argparse takes a separate "-7/9" for an option, so it is joined by "="
        code, out, _ = run_cli(capsys, *command.split(), "--q=-7/9")
        assert code == 0
        assert json.loads(out)["q"] == "-7/9"

    @pytest.mark.parametrize("command,q", [("moments --d 1 --n 2", "-1/2"), ("spectrum", "-1e-1")])
    def test_negative_q_as_its_own_argument(self, command, q, capsys):
        # argparse alone reads a separate "-1/2" or "-1e-1" as an option
        joined = run_cli(capsys, *command.split(), f"--q={q}")
        separate = run_cli(capsys, *command.split(), "--q", q)
        assert separate == joined
        assert joined[0] == 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "1.0", "-1", "-9/9", "1/0", "0.5.5", "abc"])
    def test_bad_q_exits_2(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--q", bad])
        assert exc.value.code == 2
        assert "bad --q value" in capsys.readouterr().err

    def test_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--operator", "T", "--d", "2",
                               "--n", "2", "--format", "pretty")
        assert "m_2 = 6+2q" in out

    def test_cap_exit2(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--operator", "T", "--d", "2",
                               "--n", "17")
        assert code == 2


# The CLI knobs each suite takes, read off its signature: n or n_max, d or
# d_max, seed.
SUITE_KNOBS = {
    "wick": {"n", "d", "seed"},
    "semi-moments": {"n", "d"},
    "meander-moments": {"n", "d"},
    "crossing-formula": {"n", "seed"},
    "pair-counting": {"n", "d"},
    "restricted-wick": {"n", "d"},
    "commutator": {"d", "seed"},
    "bnc-q0": {"n", "d"},
}


class TestVerify:
    def test_alias_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem14",
                               "--d", "2", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "theorem14"
        assert doc["failure_count"] == 0
        assert doc["instances"] > 0

    def test_descriptive_name(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "pair-counting",
                               "--n", "3")
        assert code == 0
        assert json.loads(out)["failure_count"] == 0

    def test_seed_echoed_and_reproducible(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--suite", "wick", "--n", "2",
                                 "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify", "--suite", "wick", "--n", "2",
                                 "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["seed"] == 7

    def test_suite_defaults_apply_without_flags(self, capsys):
        # without --d the suite keeps its own d_max=3, n_max=4: 12 instances
        code, out, _ = run_cli(capsys, "verify", "--suite", "semi-moments")
        assert code == 0
        assert json.loads(out)["instances"] == 12

    def test_knob_the_suite_does_not_take_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "commutator", "--n", "7")
        assert code == 2
        assert out == ""
        assert "--n" in err

    @pytest.mark.parametrize("knob", ["n", "d", "seed"])
    @pytest.mark.parametrize("suite", sorted(SUITE_KNOBS))
    def test_each_suite_takes_exactly_its_knobs(self, suite, knob, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, f"--{knob}", "1")
        if knob in SUITE_KNOBS[suite]:
            assert code == 0
            assert json.loads(out)["failure_count"] == 0
        else:
            assert code == 2
            assert out == ""
            assert f"takes no --{knob}" in err

    @pytest.mark.parametrize("flag,value", [("--q", "1/2"), ("--jobs", "2"), ("--cap", "3"),
                                            ("--format", "csv")])
    def test_compute_flags_not_accepted(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "wick", flag, value])
        assert exc.value.code == 2

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        import meanderq.verify as verify_mod

        def broken(**kwargs):
            return {
                "schema_version": 1,
                "suite": "wick",
                "instances": 1,
                "failures": [{"why": "planted"}],
                "failure_count": 1,
                "seed": kwargs.get("seed"),
            }

        monkeypatch.setitem(verify_mod.SUITES, "wick", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "wick")
        assert code == 1
        assert json.loads(out)["failure_count"] == 1


class TestSpectrum:
    def test_q0_document(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "1", "--q", "0",
                               "--n", "6", "--nodes", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["hankel"]["psd"] is True
        assert len(doc["nodes"]) == 2
        assert doc["reproduced_moments"] == 4
        assert doc["nodes_within_bound"] is True
        # the emitted rule really does reproduce m_0..m_3 (1, 1, 2, 5 at d=1)
        from meanderq.spectra import semi_meander_moments
        from fractions import Fraction

        ms = semi_meander_moments(1, Fraction(0), 3)
        for n in range(4):
            got = sum(w * x**n for x, w in zip(doc["nodes"], doc["weights"]))
            assert got == pytest.approx(float(ms.moments[n]), rel=1e-9, abs=1e-9)

    def test_monitored_at_nonzero_q(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "2", "--q", "0.5",
                               "--n", "8", "--nodes", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes_within_bound"] == "monitored"

    def test_order_one_gives_a_one_node_rule(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "2", "--q", "1/2", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == [2.0]  # m_1 = d
        assert doc["weights"] == [1.0]
        assert doc["reproduced_moments"] == 2

    def test_long_exact_sequence_certifies(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "1", "--q", "1/2", "--n", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["hankel"]["psd"] is True
        assert doc["jacobi_breakdown"] is None
        assert len(doc["nodes"]) == 20
        assert doc["reproduced_moments"] == 40
        from meanderq.spectra import semi_meander_moments
        from fractions import Fraction

        ms = semi_meander_moments(1, Fraction(1, 2), 39)
        for n in range(40):
            got = sum(w * x**n for x, w in zip(doc["nodes"], doc["weights"]))
            assert got == pytest.approx(float(ms.moments[n]), rel=1e-9)

    def test_decimal_q_is_its_exact_rational(self, capsys):
        # --q 0.5 runs the exact sweep at 1/2, so its moments certify as far
        # as those of --q 1/2; only "q" is printed as the float it was typed
        code, out, _ = run_cli(capsys, "spectrum", "--d", "1", "--q", "0.5", "--n", "40")
        assert code == 0
        doc = json.loads(out)
        code, out, _ = run_cli(capsys, "spectrum", "--d", "1", "--q", "1/2", "--n", "40")
        assert code == 0
        exact = json.loads(out)
        assert doc["q"] == 0.5 and exact["q"] == "1/2"
        assert doc["hankel"]["psd"] is exact["hankel"]["psd"] is True
        assert doc["jacobi_breakdown"] is exact["jacobi_breakdown"] is None
        assert len(doc["nodes"]) == len(exact["nodes"]) == 20
        assert doc["nodes"] == exact["nodes"]
        assert doc["reproduced_moments"] == 40

    def test_omitted_q_is_exact_zero(self, capsys):
        # the same document as --q 0, whose exact moments certify to depth 20
        code, out, _ = run_cli(capsys, "spectrum", "--d", "1", "--n", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == "0"
        assert doc["hankel"]["psd"] is True
        assert doc["jacobi_breakdown"] is None
        assert len(doc["nodes"]) == 20
        assert doc["nodes_within_bound"] is True
        assert run_cli(capsys, "spectrum", "--d", "1", "--q", "0", "--n", "40")[1] == out

    def test_formal_q_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--q", "formal")
        assert code == 2
        assert out == ""
        assert "numeric --q" in err

    def test_breakdown_reported_not_fatal(self, capsys):
        # d=1 q=0 truncated early enough that the recursion stays regular;
        # the field must exist either way
        code, out, _ = run_cli(capsys, "spectrum", "--d", "1", "--q", "0", "--n", "4")
        assert code == 0
        assert "jacobi_breakdown" in json.loads(out)


# the items each kind lists, built in one piece
WHOLE_ITEMS = {
    "pairs": lambda n: [p.to_lists() for p in enumerate_pair_partitions(n)],
    "noncrossing": lambda n: [p.to_lists() for p in enumerate_noncrossing(n)],
    "dyck": lambda n: [str(t) for t in enumerate_dyck(2 * n)],
    "bnc": lambda n: [p.to_lists() for p in enumerate_bnc2_alternating(2 * n)],
}


class TestEnumerate:
    def test_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "pairs", "--n", "2")
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["items"][0] == [[1, 2], [3, 4]]

    def test_dyck(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "dyck", "--n", "3")
        doc = json.loads(out)
        assert doc["count"] == 5
        assert doc["items"][0] == "111***"

    def test_noncrossing_and_bnc(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "noncrossing", "--n", "5")
        assert json.loads(out)["count"] == 42
        code, out, _ = run_cli(capsys, "enumerate", "--kind", "bnc", "--n", "5")
        assert json.loads(out)["count"] == 42

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in WHOLE_ITEMS for n in range(1, 6)]
                             + [("pairs", 6)])
    def test_stream_is_the_whole_document(self, kind, n, capsys):
        # the items are written as they are made, under a closed-form count;
        # the bytes equal the one-piece document with the counted items
        # (the 10,395 matchings of n=6 span several write chunks)
        items = WHOLE_ITEMS[kind](n)
        whole = {"schema_version": 1, "kind": kind, "n": n, "count": len(items), "items": items}
        code, out, _ = run_cli(capsys, "enumerate", "--kind", kind, "--n", str(n))
        assert code == 0
        assert out == json.dumps(whole, separators=(",", ":")) + "\n"

    def test_memory_stays_flat(self, monkeypatch):
        # holding all 10,395 matchings of n=6 and their JSON text peaks near
        # 9 MB; streamed, the run stays far below that
        class Discard:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert main(["enumerate", "--kind", "pairs", "--n", "6"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


# Flags each computing subcommand used to accept and then ignore.
UNREAD_FLAGS = [
    ("poly", "--d", "2"), ("poly", "--q", "1/2"), ("poly", "--seed", "3"),
    ("moments", "--jobs", "2"), ("moments", "--seed", "3"),
    ("spectrum", "--format", "csv"), ("spectrum", "--jobs", "8"), ("spectrum", "--seed", "3"),
    ("enumerate", "--d", "2"), ("enumerate", "--q", "1/2"), ("enumerate", "--jobs", "2"),
    ("enumerate", "--seed", "3"), ("enumerate", "--format", "csv"),
]


@pytest.mark.parametrize("subcommand,flag,value", UNREAD_FLAGS)
def test_unread_flag_is_a_usage_error(subcommand, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--n", "1", flag, value])
    assert exc.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "meanderq.cli", "poly", "--kind", "semi", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["terms"] == [{"t": 1, "u": 0, "c": "1"}]
