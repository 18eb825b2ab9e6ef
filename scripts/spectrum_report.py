#!/usr/bin/env python3
"""Moment -> recurrence -> quadrature pipeline over a (d, q) grid: Hankel
verdicts, recurrence coefficients and node/weight tables as JSON lines."""

import argparse
import json
from fractions import Fraction

from meanderq.spectra import realize, semi_meander_moments, semi_meander_norm_bounds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-values", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--q-values", type=str, nargs="+", default=["-1/2", "0", "1/2"])
    ap.add_argument("--n-moments", type=int, default=10)
    args = ap.parse_args()

    for d in args.d_values:
        lower, upper = semi_meander_norm_bounds(d)
        for q_text in args.q_values:
            q = Fraction(q_text)
            r = realize(semi_meander_moments(d, q, args.n_moments))
            print(
                json.dumps(
                    {
                        "d": d,
                        "q": str(q),
                        "hankel_psd": r.recurrence.psd,
                        "hankel_min_eig": r.min_eigenvalue,
                        "recurrence_depth": r.recurrence.depth,
                        "breakdown": r.recurrence.breakdown,
                        "nodes": [round(x, 12) for x in r.quadrature.nodes],
                        "weights": [round(w, 12) for w in r.quadrature.weights],
                        "norm_window_q0": [lower, upper],
                    },
                    separators=(",", ":"),
                )
            )


if __name__ == "__main__":
    main()
