"""Moment-sequence analysis: Hankel certificates, recurrence coefficients and
Gauss quadrature realizations of the operator distributions.

The first moments coming out of the operator modules are exact, so moment
analysis (rather than diagonalising a truncated matrix, whose spectrum is
polluted by boundary effects) is the faithful desk-scale realization of the
underlying probability measures.  One exact route turns moments into a
recurrence: the Chebyshev recursion in Fractions, whose betas also certify
the Hankel matrix.  Floating point enters only in the tridiagonal
eigen-solve (nodes and weights) and the informational Hankel eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import (
    FockVector,
    apply_semi_meander_operator,
    meander_moment_sweep,
    q_inner_product,
    semi_meander_moment_sweep,
)
from .scalars import Mode


@dataclass(frozen=True)
class MomentSequence:
    """m_0 = 1, m_1, ..., m_N."""

    moments: tuple

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
    return q if isinstance(q, Mode) else Mode(q)


def semi_meander_moments(d: int, q, n_max: int, cap: int | None = None) -> MomentSequence:
    """m_0..m_n_max of the semi-meander operator at a fixed deformation."""
    return MomentSequence(semi_meander_moment_sweep(d, n_max, _as_mode(q), cap=cap))


def meander_moments(d: int, q, n_max: int, cap: int | None = None) -> MomentSequence:
    """m_0..m_n_max of the squared two-faced sum at a fixed deformation."""
    return MomentSequence(meander_moment_sweep(d, n_max, _as_mode(q), cap=cap))


def hankel_psd_check(ms: MomentSequence, size: int):
    """Certificate for the size x size Hankel matrix H[i][j] = m_{i+j}: the
    exact recursion on m_0..m_{2size-2} (see jacobi_from_moments).  Returns
    (verdict, min_eigenvalue); the float64 eigenvalue is information only."""
    if not 1 <= size <= (len(ms) + 1) // 2:
        raise ValueError(f"size must lie in 1..{(len(ms) + 1) // 2} for m_0..m_{len(ms) - 1}")
    rec = jacobi_from_moments(MomentSequence(ms.moments[: 2 * size - 1]))
    return rec.psd, _min_eigenvalue(ms, size)


def _min_eigenvalue(ms: MomentSequence, size: int) -> float:
    m = ms.floats()
    return float(np.linalg.eigvalsh([[m[i + j] for j in range(size)] for i in range(size)])[0])


@dataclass(frozen=True)
class JacobiRecurrence:
    """Three-term recurrence data, exact.  A breakdown k is the first
    beta_k <= 0; psd says the moments are those of a positive measure: true
    without breakdown, and at a breakdown only for finite support (the
    moments are exactly those of the k-node rule)."""

    alphas: tuple
    betas: tuple  # beta_0 = m_0
    breakdown: int | None = None
    psd: bool = True

    @property
    def depth(self) -> int:
        return len(self.alphas)


def jacobi_from_moments(ms: MomentSequence, exact: bool = True) -> JacobiRecurrence:
    """Chebyshev moment-to-recurrence transform in Fractions (a float moment
    converts exactly).  beta_k comes from m_0..m_{2k}, alpha_k from
    m_0..m_{2k+1}; beta_1..beta_s > 0 holds exactly when H_{s+1} is
    positive definite, so the betas are the certificate.  `exact` is kept
    for callers that pass True; False raises."""
    if not exact:
        raise ValueError("the recursion runs in exact arithmetic only")
    m = [Fraction(x) for x in ms.moments]
    top = len(m) - 1
    alphas = [m[1] / m[0]] if top else []
    betas = [m[0]]
    prev, row = [Fraction(0)] * (top + 1), m  # sigma_{k-2}(l), sigma_{k-1}(l) at step k
    for k in range(1, top // 2 + 1):
        nxt = [Fraction(0)] * (top + 1)
        for l in range(k, top - k + 1):
            nxt[l] = row[l + 1] - alphas[k - 1] * row[l] - betas[k - 1] * prev[l]
        beta = nxt[k] / row[k - 1]
        if beta <= 0:
            return JacobiRecurrence(tuple(alphas), tuple(betas), k, not any(nxt))
        betas.append(beta)
        if 2 * k < top:
            alphas.append(nxt[k + 1] / nxt[k] - row[k] / row[k - 1])
        prev, row = row, nxt
    return JacobiRecurrence(tuple(alphas), tuple(betas))


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
        return {"nodes": list(self.nodes), "weights": list(self.weights),
                "reproduced_moments": reproduced}


def quadrature_from_jacobi(rec: JacobiRecurrence, k: int) -> Quadrature:
    """Eigen-decomposition of the k x k symmetric tridiagonal recurrence
    matrix, in float64: nodes are the eigenvalues, weights the squared
    first components.  Reproduces m_0..m_{2k-1}."""
    if k < 1 or k > rec.depth:
        raise ValueError(f"k must lie in 1..{rec.depth}")
    j = np.diag([float(a) for a in rec.alphas[:k]])
    for i in range(k - 1):
        j[i, i + 1] = j[i + 1, i] = math.sqrt(rec.betas[i + 1])
    eigvals, eigvecs = np.linalg.eigh(j)
    weights = (eigvecs[0, :] ** 2) * float(rec.betas[0])
    order = np.argsort(eigvals)
    return Quadrature(
        tuple(float(eigvals[i]) for i in order),
        tuple(float(weights[i]) for i in order),
    )


@dataclass(frozen=True)
class Realization:
    """A moment sequence m_0..m_N analysed: the exact recurrence, whose psd
    verdict certifies the Hankel size N//2 + 1, the float64 Hankel minimum
    eigenvalue (information only) and the Gauss rule before any breakdown."""

    min_eigenvalue: float
    recurrence: JacobiRecurrence
    quadrature: Quadrature


def realize(ms: MomentSequence, nodes: int | None = None) -> Realization:
    """The one route from moments to quadrature, on at most `nodes` nodes."""
    if nodes is not None and nodes < 1:
        raise ValueError(f"nodes must be positive, got {nodes}")
    rec = jacobi_from_moments(ms)
    quad = quadrature_from_jacobi(rec, rec.depth if nodes is None else min(nodes, rec.depth))
    return Realization(_min_eigenvalue(ms, (len(ms) - 1) // 2 + 1), rec, quad)


def semi_meander_norm_bounds(d: int, n_max: int = 4) -> tuple[float, float]:
    """Undeformed norm window: lower bound from the vacuum image and the even
    moments, upper bound 4d."""
    ms = semi_meander_moments(d, Fraction(0), n_max)
    lower = math.sqrt(d + d * d)
    for two_n in range(2, len(ms), 2):
        lower = max(lower, float(ms.moments[two_n]) ** (1.0 / two_n))
    return lower, 4.0 * d


def negativity_witness(d: int, q=Fraction(0)):
    """Quadratic form of the semi-meander operator on the antisymmetric
    two-letter tensor; strictly negative at q = 0, so the operator is not
    positive despite its summands being so."""
    if d < 2:
        raise ValueError("d >= 2 required (the witness uses two letters)")
    mode = _as_mode(q)
    one = mode.one()
    xi = FockVector(d, mode, {(1, 2): one, (2, 1): -one})
    return q_inner_product(apply_semi_meander_operator(xi), xi)
