"""Command-line front end.

Subcommands: poly, moments, verify, spectrum, enumerate.  JSON is the default
output (documents carry "schema_version": 1 and are byte-stable for fixed
inputs and seeds); "pretty" renders polynomials in the (t, u) notation; csv is
available where tabular.  Exit codes: 0 success / all checks pass, 1 a
verification suite failed, 2 usage or cap errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import islice

from .dyck import enumerate_bnc2_alternating, enumerate_dyck
from .partitions import (catalan, enumerate_noncrossing, enumerate_pair_partitions,
                         odd_double_factorial)
from .polynomials import kronecker_poly, poly_json_doc
from .scalars import FORMAL, Mode, QPoly, parse_q
from .spectra import MomentSequence, meander_moments, realize, semi_meander_moments
from .verify import SUITE_ALIASES, SUITES, run_suite


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")


def _scalar_json(value):
    if isinstance(value, QPoly):
        return {"coeffs": value.coeff_strings()}
    if isinstance(value, Fraction):
        return str(value)
    return value


def cmd_poly(cfg: argparse.Namespace) -> int:
    p = kronecker_poly(cfg.kind, cfg.n, cap=cfg.cap)
    if cfg.fmt == "csv":
        sys.stdout.write(p.to_csv())
    elif cfg.fmt == "pretty":
        sys.stdout.write(f"{p}\n")
    else:
        _emit(poly_json_doc(p, cfg.kind, cfg.n))
    return 0


def cmd_moments(cfg: argparse.Namespace) -> int:
    mode, decimal = cfg.q
    moments = semi_meander_moments if cfg.operator == "T" else meander_moments
    ms = moments(cfg.d, mode, cfg.n, cap=cfg.cap)
    ms = MomentSequence(ms.floats()) if decimal else ms
    q_field = "formal" if mode.is_formal else (float(mode.q) if decimal else str(mode.q))
    if cfg.fmt == "csv":
        sys.stdout.write(ms.to_csv())
    elif cfg.fmt == "pretty":
        for n, v in enumerate(ms.moments):
            sys.stdout.write(f"m_{n} = {v}\n")
    else:
        _emit({"schema_version": 1, "operator": cfg.operator, "d": cfg.d, "q": q_field,
               "moments": [{"n": n, "value": _scalar_json(v)} for n, v in enumerate(ms.moments)]})
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    report = run_suite(cfg.suite, n=cfg.n, d=cfg.d, seed=cfg.seed)
    _emit(report)
    return 0 if report["failure_count"] == 0 else 1


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    q, decimal = cfg.q
    if q.is_formal:
        raise ValueError("spectrum needs a numeric --q")
    r = realize(semi_meander_moments(cfg.d, q, cfg.n, cap=cfg.cap), cfg.nodes)
    bound = 4.0 * cfg.d
    in_bound = all(abs(x) <= bound + 1e-9 for x in r.quadrature.nodes)
    _emit({
        "schema_version": 1,
        "d": cfg.d,
        "q": float(q.q) if decimal else str(q.q),
        "n_moments": cfg.n,
        "hankel": {"psd": r.recurrence.psd, "min_eigenvalue": r.min_eigenvalue},
        "jacobi_breakdown": r.recurrence.breakdown,
        **r.quadrature.to_json_obj(2 * len(r.quadrature.nodes)),
        "node_bound": bound,
        "nodes_within_bound": in_bound if float(q.q) == 0.0 else "monitored",
    })
    return 0


def cmd_enumerate(cfg: argparse.Namespace) -> int:
    """Stream the items under their closed-form count: one JSON document, flat memory."""
    n, cap = cfg.n, cfg.cap
    items = {
        "pairs": lambda: (p.to_lists() for p in enumerate_pair_partitions(n, cap=cap)),
        "noncrossing": lambda: (p.to_lists() for p in enumerate_noncrossing(n, cap=cap)),
        "bnc": lambda: (p.to_lists() for p in enumerate_bnc2_alternating(2 * n, cap=cap)),
        "dyck": lambda: (str(t) for t in enumerate_dyck(2 * n, cap=cap)),
    }[cfg.kind]()
    count = odd_double_factorial(n) if cfg.kind == "pairs" else catalan(n)
    head = {"schema_version": 1, "kind": cfg.kind, "n": n, "count": count, "items": []}
    sys.stdout.write(json.dumps(head, separators=(",", ":"))[:-2])  # ends '"items":['
    for k, chunk in enumerate(iter(lambda: list(islice(items, 1024)), [])):
        sys.stdout.write("," * (k > 0) + json.dumps(chunk, separators=(",", ":"))[1:-1])
    sys.stdout.write("]}\n")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _q_arg(text: str) -> tuple[Mode, bool]:
    """A --q value and whether it is decimal text, whose documents print q and
    the moments as floats, each rounded once from its exact value."""
    try:
        return parse_q(text), "/" not in text and ("." in text or "e" in text.lower())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad --q value: {exc}")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads the word after ``--q`` as its value when
    it starts like a negative number: argparse takes ``-1/2`` or ``-1e-1``,
    unlike ``-0.5``, for an option."""

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] == "--q" and re.match(r"-[\d.]", arg):
                joined[-1] = f"--q={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meanderq",
        description="Meander/semi-meander polynomials, deformed Fock-space "
        "moments and moment-problem tooling, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    flags = {
        "n": dict(type=_positive_int, default=2),
        "d": dict(type=_positive_int, default=1),
        "seed": dict(type=int, default=0),
        "q": dict(type=_q_arg, default=(FORMAL, False)),
        "cap": dict(type=_positive_int, default=None),
        "jobs": dict(type=int, choices=(1,), default=1,
                     help="only 1: the sweep runs in one process; the flag goes away "
                     "once the benchmark documents stop passing --jobs 1"),
        "format": dict(dest="fmt", choices=("json", "csv", "pretty"), default="json"),
    }

    def subcommand(name, handler, help, *names, **defaults):
        """A subcommand with only the shared flags its handler reads."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(handler=handler, **defaults)
        return p

    p_poly = subcommand("poly", cmd_poly, "a polynomial, read off one moment sweep",
                        "n", "cap", "jobs", "format")
    p_poly.add_argument("--kind", choices=("semi", "meander"), default="semi")

    p_mom = subcommand("moments", cmd_moments, "moment table of an operator",
                       "n", "d", "q", "cap", "format")
    p_mom.add_argument("--operator", choices=("T", "X"), default="T")

    # None keeps each suite's own defaults; run_suite rejects a knob the
    # suite does not take.
    p_ver = subcommand("verify", cmd_verify, "run a named verification suite",
                       "n", "d", "seed", n=None, d=None, seed=None)
    all_suites = sorted(set(SUITES) | set(SUITE_ALIASES))
    p_ver.add_argument("--suite", choices=all_suites, required=True)

    p_spec = subcommand("spectrum", cmd_spectrum, "moment -> recurrence -> quadrature",
                        "n", "d", "q", "cap", n=6, q=(Mode(Fraction(0)), False))
    p_spec.add_argument("--nodes", type=_positive_int, default=None)

    p_enum = subcommand("enumerate", cmd_enumerate, "stream combinatorial objects",
                        "n", "cap")
    p_enum.add_argument("--kind", choices=("pairs", "noncrossing", "dyck", "bnc"),
                        default="pairs")

    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        return cfg.handler(cfg)
    except ValueError as exc:  # EnumerationCapError and GroundSetError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
