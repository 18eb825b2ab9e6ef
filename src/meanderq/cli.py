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
import sys
from fractions import Fraction
from itertools import islice

from .dyck import enumerate_bnc2_alternating, enumerate_dyck
from .errors import EnumerationCapError, GroundSetError, TruncationOverflowError
from .partitions import (catalan, enumerate_noncrossing, enumerate_pair_partitions,
                         odd_double_factorial)
from .polynomials import (
    coefficient_table,
    meander_poly,
    poly_json_doc,
    semi_meander_poly,
)
from .scalars import FORMAL, Mode, QPoly, parse_q
from .spectra import (
    hankel_psd_check,
    jacobi_from_moments,
    meander_moments,
    quadrature_from_jacobi,
    semi_meander_moments,
)
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
    builder = semi_meander_poly if cfg.kind == "semi" else meander_poly
    p = builder(cfg.n, cap=cfg.cap, jobs=cfg.jobs)
    if cfg.fmt == "csv":
        sys.stdout.write(coefficient_table(p).to_csv())
    elif cfg.fmt == "pretty":
        sys.stdout.write(f"{p}\n")
    else:
        _emit(poly_json_doc(p, cfg.kind, cfg.n))
    return 0


def cmd_moments(cfg: argparse.Namespace) -> int:
    mode = cfg.q
    moments = semi_meander_moments if cfg.operator == "T" else meander_moments
    ms = moments(cfg.d, mode, cfg.n, cap=cfg.cap)
    q_field = "formal" if mode.is_formal else (str(mode.q) if mode.is_exact else mode.q)
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
    q = cfg.q if not cfg.q.is_formal else Mode(0.0)
    ms = semi_meander_moments(cfg.d, q, cfg.n, cap=cfg.cap)
    psd, min_eig = hankel_psd_check(ms, cfg.n // 2 + 1)
    rec = jacobi_from_moments(ms)
    k = min(cfg.nodes or rec.depth, rec.depth)
    quad = quadrature_from_jacobi(rec, k)
    bound = 4.0 * cfg.d
    in_bound = all(abs(x) <= bound + 1e-9 for x in quad.nodes)
    _emit({
        "schema_version": 1,
        "d": cfg.d,
        "q": str(q.q) if q.is_exact else q.q,
        "n_moments": cfg.n,
        "hankel": {"psd": psd, "min_eigenvalue": min_eig},
        "jacobi_breakdown": rec.breakdown,
        **quad.to_json_obj(2 * k),
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


def _q_mode(text: str) -> Mode:
    try:
        return parse_q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad --q value: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanderq",
        description="Meander/semi-meander polynomials, deformed Fock-space "
        "moments and moment-problem tooling, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    flags = {
        "n": dict(type=_positive_int, default=2),
        "d": dict(type=_positive_int, default=1),
        "seed": dict(type=int, default=0),
        "q": dict(type=_q_mode, default=FORMAL),
        "cap": dict(type=_positive_int, default=None),
        "jobs": dict(type=_positive_int, default=1),
        "format": dict(dest="fmt", choices=("json", "csv", "pretty"), default="json"),
    }

    def subcommand(name, handler, help, *names, **defaults):
        """A subcommand with only the shared flags its handler reads."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(handler=handler, **defaults)
        return p

    p_poly = subcommand("poly", cmd_poly, "build a polynomial by enumeration",
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
                        "n", "d", "q", "cap", n=6)
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
    except (EnumerationCapError, TruncationOverflowError, GroundSetError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
