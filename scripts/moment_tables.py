#!/usr/bin/env python3
"""Print the small polynomial tables and the operator/polynomial moment
cross-check, the package's headline identity, over a desk-scale grid.
Exits 1 if any moment differs from its polynomial's value."""

import argparse
import sys
import time

from meanderq.fock import meander_moment_sweep, semi_meander_moment_sweep
from meanderq.polynomials import meander_poly, semi_meander_poly
from meanderq.scalars import FORMAL


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--d-max", type=int, default=3)
    ap.add_argument("--meander-n-max", type=int, default=3)
    args = ap.parse_args()

    print("== semi-meander polynomials ==")
    polys = {}
    for n in range(1, args.n_max + 1):
        t0 = time.time()
        polys[n] = p = semi_meander_poly(n)
        print(f"n={n}  ({time.time() - t0:.2f}s)  {p}")
        print(p.to_csv())

    print("== operator moments vs polynomial values (formal deformation) ==")
    # one sweep per d gives m_1..m_n_max at once
    mismatches = 0
    semi = {
        d: semi_meander_moment_sweep(d, args.n_max, FORMAL, cap=args.n_max)
        for d in range(1, args.d_max + 1)
    }
    for n in range(1, args.n_max + 1):
        for d in range(1, args.d_max + 1):
            m = semi[d][n]
            ok = m == polys[n].eval_at_t(d)
            mismatches += not ok
            print(f"d={d} n={n}: moment = {m}  [{'ok' if ok else 'MISMATCH'}]")

    print("== meander side ==")
    meander = {
        d: meander_moment_sweep(d, args.meander_n_max, FORMAL, cap=args.meander_n_max)
        for d in (1, 2)
    }
    for n in range(1, args.meander_n_max + 1):
        p = meander_poly(n)
        print(f"n={n}  {p}")
        for d in (1, 2):
            m = meander[d][n]
            ok = m == p.eval_at_t(d)
            mismatches += not ok
            print(f"  d={d}: moment = {m}  [{'ok' if ok else 'MISMATCH'}]")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
