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

from .dyck import enumerate_bnc2_alternating, enumerate_dyck
from .errors import EnumerationCapError, GroundSetError, TruncationOverflowError
from .fock import meander_moment_sweep, semi_meander_moment_sweep
from .partitions import enumerate_noncrossing, enumerate_pair_partitions
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
    moments = semi_meander_moment_sweep if cfg.operator == "T" else meander_moment_sweep
    values = moments(cfg.d, cfg.n, mode, cap=cfg.cap)
    q_field = "formal" if mode.is_formal else (str(mode.q) if mode.is_exact else mode.q)
    if cfg.fmt == "csv":
        sys.stdout.write("n,moment\n")
        for n, v in enumerate(values):
            sys.stdout.write(f"{n},{v}\n")
    elif cfg.fmt == "pretty":
        for n, v in enumerate(values):
            sys.stdout.write(f"m_{n} = {v}\n")
    else:
        _emit(
            {
                "schema_version": 1,
                "operator": cfg.operator,
                "d": cfg.d,
                "q": q_field,
                "moments": [
                    {"n": n, "value": _scalar_json(v)} for n, v in enumerate(values)
                ],
            }
        )
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    report = run_suite(cfg.suite, n=cfg.n, d=cfg.d, seed=cfg.seed)
    _emit(report)
    return 0 if report["failure_count"] == 0 else 1


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    q = cfg.q if not cfg.q.is_formal else Mode(0.0)
    ms = semi_meander_moments(cfg.d, q, cfg.n, cap=cfg.cap)
    size = max(2, (len(ms) - 1) // 2 + 1)
    psd, min_eig = hankel_psd_check(ms, size)
    rec = jacobi_from_moments(ms)
    k = cfg.nodes if cfg.nodes is not None else rec.depth
    k = min(k, rec.depth)
    quad = quadrature_from_jacobi(rec, k)
    reproduced = 2 * k
    bound = 4.0 * cfg.d
    in_bound = all(abs(x) <= bound + 1e-9 for x in quad.nodes)
    doc = {
        "schema_version": 1,
        "d": cfg.d,
        "q": str(q.q) if q.is_exact else q.q,
        "n_moments": cfg.n,
        "hankel": {"psd": psd, "min_eigenvalue": min_eig},
        "jacobi_breakdown": rec.breakdown,
        "nodes": list(quad.nodes),
        "weights": list(quad.weights),
        "reproduced_moments": reproduced,
        "node_bound": bound,
        "nodes_within_bound": in_bound if float(q.q) == 0.0 else "monitored",
    }
    _emit(doc)
    return 0


def cmd_enumerate(cfg: argparse.Namespace) -> int:
    kind = cfg.kind
    if kind == "pairs":
        items = [p.to_lists() for p in enumerate_pair_partitions(cfg.n, cap=cfg.cap)]
    elif kind == "noncrossing":
        items = [p.to_lists() for p in enumerate_noncrossing(cfg.n, cap=cfg.cap)]
    elif kind == "bnc":
        items = [p.to_lists() for p in enumerate_bnc2_alternating(2 * cfg.n, cap=cfg.cap)]
    elif kind == "dyck":
        items = [str(t) for t in enumerate_dyck(2 * cfg.n, cap=cfg.cap)]
    else:
        raise ValueError(f"unknown enumeration kind {kind!r}")
    _emit({"schema_version": 1, "kind": kind, "n": cfg.n, "count": len(items), "items": items})
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

    def common(p, n_default=2, d_default=1, seed_default=0):
        p.add_argument("--n", type=_positive_int, default=n_default)
        p.add_argument("--d", type=_positive_int, default=d_default)
        p.add_argument("--seed", type=int, default=seed_default)

    def compute(p, n_default=2):
        common(p, n_default)
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "pretty"),
                       default="json")
        p.add_argument("--q", type=_q_mode, default=FORMAL)
        p.add_argument("--jobs", type=_positive_int, default=1)
        p.add_argument("--cap", type=_positive_int, default=None)

    p_poly = sub.add_parser("poly", help="build a polynomial by enumeration")
    compute(p_poly)
    p_poly.add_argument("--kind", choices=("semi", "meander"), default="semi")

    p_mom = sub.add_parser("moments", help="moment table of an operator")
    compute(p_mom)
    p_mom.add_argument("--operator", choices=("T", "X"), default="T")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    # None keeps each suite's own defaults; run_suite rejects a knob the
    # suite does not take; verify has no --q, --jobs, --cap or --format.
    common(p_ver, n_default=None, d_default=None, seed_default=None)
    all_suites = sorted(set(SUITES) | set(SUITE_ALIASES))
    p_ver.add_argument("--suite", choices=all_suites, required=True)

    p_spec = sub.add_parser("spectrum", help="moment -> recurrence -> quadrature")
    compute(p_spec, n_default=6)
    p_spec.add_argument("--nodes", type=_positive_int, default=None)

    p_enum = sub.add_parser("enumerate", help="stream combinatorial objects")
    compute(p_enum)
    p_enum.add_argument("--kind", choices=("pairs", "noncrossing", "dyck", "bnc"),
                        default="pairs")

    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    handlers = {
        "poly": cmd_poly,
        "moments": cmd_moments,
        "verify": cmd_verify,
        "spectrum": cmd_spectrum,
        "enumerate": cmd_enumerate,
    }
    try:
        return handlers[cfg.subcommand](cfg)
    except (EnumerationCapError, TruncationOverflowError, GroundSetError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
