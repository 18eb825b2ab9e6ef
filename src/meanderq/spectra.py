"""Moment-sequence analysis: Hankel certificates, recurrence coefficients and
Gauss quadrature realizations of the operator distributions.

The first moments coming out of the operator modules are exact, so moment
analysis (rather than diagonalising a truncated matrix, whose spectrum is
polluted by boundary effects) is the faithful desk-scale realization of the
underlying probability measures.  The quadrature pipeline runs in floating
point after the exact moment computation; an exact-rational recursion is
available behind a flag for small depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import (
    apply_semi_meander_operator,
    meander_moment_sweep,
    q_inner_product,
    semi_meander_moment_sweep,
)
from .scalars import Mode


@dataclass(frozen=True)
class MomentSequence:
    """m_0 = 1, m_1, ..., m_N with a provenance tag naming the producer."""

    moments: tuple
    provenance: str = ""

    def __post_init__(self):
        if not self.moments:
            raise ValueError("a moment sequence needs at least m_0")
        if self.moments[0] != 1:
            raise ValueError(f"m_0 must be 1, got {self.moments[0]}")
        object.__setattr__(self, "moments", tuple(self.moments))

    def __len__(self):
        return len(self.moments)

    def floats(self) -> tuple[float, ...]:
        return tuple(float(m) for m in self.moments)

    def to_csv(self) -> str:
        lines = ["n,moment"]
        lines += [f"{n},{m}" for n, m in enumerate(self.moments)]
        return "\n".join(lines) + "\n"


def _as_mode(q) -> Mode:
    if isinstance(q, Mode):
        return q
    if isinstance(q, (int, Fraction)):
        return Mode(Fraction(q))
    return Mode(float(q))


def semi_meander_moments(d: int, q, n_max: int, cap: int | None = None) -> MomentSequence:
    """m_0..m_n_max of the semi-meander operator at a fixed deformation."""
    mode = _as_mode(q)
    moments = semi_meander_moment_sweep(d, n_max, mode, cap=cap)
    return MomentSequence(tuple(moments), provenance=f"semi-meander-op d={d} q={mode.q}")


def meander_moments(d: int, q, n_max: int, cap: int | None = None) -> MomentSequence:
    """m_0..m_n_max of the squared two-faced sum at a fixed deformation."""
    mode = _as_mode(q)
    moments = meander_moment_sweep(d, n_max, mode, cap=cap)
    return MomentSequence(tuple(moments), provenance=f"meander-op d={d} q={mode.q}")


def hankel_psd_check(ms: MomentSequence, size: int, tol: float = 1e-8):
    """Positive-semidefiniteness certificate for the size x size Hankel matrix
    H[i][j] = m_{i+j}.  Returns (verdict, min_eigenvalue); the verdict uses a
    tolerance relative to the trace so the scale of d does not matter."""
    if 2 * size - 2 >= len(ms):
        raise ValueError(
            f"need moments up to m_{2 * size - 2}, have {len(ms) - 1}"
        )
    m = ms.floats()
    h = np.array([[m[i + j] for j in range(size)] for i in range(size)])
    eigs = np.linalg.eigvalsh(h)
    min_eig = float(eigs[0])
    return min_eig >= -tol * float(np.trace(h)), min_eig


@dataclass(frozen=True)
class JacobiRecurrence:
    """Three-term recurrence data; breakdown marks finite support, not failure."""

    alphas: tuple
    betas: tuple  # beta_0 = m_0
    breakdown: int | None = None

    @property
    def depth(self) -> int:
        return len(self.alphas)


def jacobi_from_moments(ms: MomentSequence, exact: bool = False) -> JacobiRecurrence:
    """Chebyshev moment-to-recurrence transform.  A vanishing (or, in float,
    numerically negligible / negative) diagonal minor stops the recursion and
    is reported as the breakdown index."""
    if exact:
        m = [Fraction(x) for x in ms.moments]
    else:
        m = list(ms.floats())
    n_avail = (len(m)) // 2  # alpha_0..alpha_{n_avail-1} need m_0..m_{2*n_avail-1}
    if n_avail < 1:
        raise ValueError("need at least m_0 and m_1")
    zero = Fraction(0) if exact else 0.0
    sigma_prev = [zero] * (2 * n_avail)
    sigma_curr = list(m[: 2 * n_avail])
    alphas = [m[1] / m[0]]
    betas = [m[0]]
    breakdown = None
    for k in range(1, n_avail):
        sigma_next = [zero] * (2 * n_avail)
        for l in range(k, 2 * n_avail - k):
            val = sigma_curr[l + 1] - alphas[k - 1] * sigma_curr[l]
            if k >= 2:
                val -= betas[k - 1] * sigma_prev[l]
            sigma_next[l] = val
        denom = sigma_next[k]
        prev_denom = sigma_curr[k - 1]
        if exact:
            vanished = denom == 0
        else:
            vanished = denom <= 1e-12 * max(1.0, abs(prev_denom))
        if vanished:
            breakdown = k
            break
        betas.append(denom / prev_denom)
        alphas.append(sigma_next[k + 1] / denom - sigma_curr[k] / prev_denom)
        sigma_prev, sigma_curr = sigma_curr, sigma_next
    return JacobiRecurrence(tuple(alphas), tuple(betas), breakdown)


@dataclass(frozen=True)
class Quadrature:
    """Finite-support surrogate measure: real nodes, positive weights, sum 1."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {sum(self.weights)}, expected 1")
        if any(w < -1e-12 for w in self.weights):
            raise ValueError(f"negative weight in {self.weights}")

    def moment(self, n: int) -> float:
        return sum(w * x**n for x, w in zip(self.nodes, self.weights))

    def to_json_obj(self, reproduced: int) -> dict:
        return {
            "nodes": list(self.nodes),
            "weights": list(self.weights),
            "reproduced_moments": reproduced,
        }


def quadrature_from_jacobi(rec: JacobiRecurrence, k: int) -> Quadrature:
    """Eigen-decomposition of the k x k symmetric tridiagonal recurrence
    matrix: nodes are the eigenvalues, weights the squared first components.
    Reproduces m_0..m_{2k-1}."""
    if k < 1 or k > rec.depth:
        raise ValueError(f"k must lie in 1..{rec.depth}")
    alphas = [float(a) for a in rec.alphas[:k]]
    offdiag = [math.sqrt(float(b)) for b in rec.betas[1:k]]
    j = np.diag(alphas)
    for i, b in enumerate(offdiag):
        j[i, i + 1] = b
        j[i + 1, i] = b
    eigvals, eigvecs = np.linalg.eigh(j)
    weights = (eigvecs[0, :] ** 2) * float(rec.betas[0])
    order = np.argsort(eigvals)
    return Quadrature(
        tuple(float(eigvals[i]) for i in order),
        tuple(float(weights[i]) for i in order),
    )


def moments_from_jacobi(rec: JacobiRecurrence, n_max: int) -> tuple[float, ...]:
    """Re-expand moments from recurrence data (valid through m_{2*depth-1})."""
    k = rec.depth
    j = np.diag([float(a) for a in rec.alphas])
    for i in range(k - 1):
        b = math.sqrt(float(rec.betas[i + 1]))
        j[i, i + 1] = b
        j[i + 1, i] = b
    e0 = np.zeros(k)
    e0[0] = 1.0
    out = []
    vec = e0
    for n in range(n_max + 1):
        out.append(float(e0 @ vec))
        vec = j @ vec
    return tuple(out)


def semi_meander_norm_bounds(d: int, n_max: int = 4) -> tuple[float, float]:
    """Undeformed norm window: lower bound from the vacuum image and the even
    moments, upper bound 4d."""
    ms = semi_meander_moments(d, Fraction(0), n_max)
    lower = math.sqrt(d + d * d)
    for two_n in range(2, len(ms), 2):
        lower = max(lower, float(ms.moments[two_n]) ** (1.0 / two_n))
    return lower, 4.0 * d


def negativity_witness(d: int, q=0.0):
    """Quadratic form of the semi-meander operator on the antisymmetric
    two-letter tensor; strictly negative at q = 0, so the operator is not
    positive despite its summands being so."""
    if d < 2:
        raise ValueError("d >= 2 required (the witness uses two letters)")
    mode = _as_mode(q)
    one = mode.one()
    from .fock import FockVector

    xi = FockVector(d, 4, mode, {(1, 2): one, (2, 1): -one})
    return q_inner_product(apply_semi_meander_operator(xi), xi)
