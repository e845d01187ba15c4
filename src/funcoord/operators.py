"""Conjugation, metric transforms, locality.

Changing coordinates by an integral kernel ``W`` conjugates operator
matrices (``W^+ A W``) and transforms metrics (``W* G W``). Conjugation
through a regularized pseudo-inverse always attaches its
:class:`~funcoord.kernels.ConditionReport`; for ill-conditioned transforms
prefer residual checks ``A W - W B`` over explicit conjugation.

Locality on a grid is quantified by band mass: the fraction of squared
Frobenius mass within a band around the diagonal. Banded matrices are the
discrete shadow of differential (local) operators, so a score near 1 is
the grid-level signature of locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, MetricDegeneracyError
from .grid import Grid, OperatorMatrix, _order, _row_blocks
from .kernels import ConditionReport, _truncated_svd

__all__ = [
    "Metric",
    "FactoredMatrix",
    "conjugate",
    "conjugate_factored",
    "transform_metric",
    "locality_score",
]


class FactoredMatrix(NamedTuple):
    """The n x n matrix ``left @ right``, held as its n x r and r x n factors."""

    left: np.ndarray
    right: np.ndarray
    grid: Optional[Grid]
    condition: ConditionReport


def conjugate_factored(
    A: Union[OperatorMatrix, np.ndarray], W: OperatorMatrix, threshold: float = 1.0e-10
) -> FactoredMatrix:
    """Coordinate-transformed operator ``invert(W) A W``, as the factors
    ``V_r`` and ``s_r^-1 ((U_r^H A) W)``, which have r columns and r rows.
    ``A`` may also be given as a 1-D array, the diagonal of a
    multiplication operator, which is applied as a scaling and never
    formed as a matrix.

    The regularized inverse's :class:`ConditionReport` is attached to the
    result's ``condition`` field — always inspect it: a truncated rank
    means the conjugation is only determined on the resolved subspace.
    """
    if isinstance(A, OperatorMatrix):
        if A.n != W.n:
            raise DomainError(f"dimension mismatch: A is {A.n}, W is {W.n}")
        a, grid = A.entries, A.grid or W.grid
    else:
        a, grid = np.asarray(A), W.grid
        if a.shape != (W.n,):
            raise DomainError(f"diagonal of A has shape {a.shape}, expected ({W.n},)")
    u, s, vh, report = _truncated_svd(W.entries, threshold)
    left = u.conj().T @ a if a.ndim == 2 else u.conj().T * a
    return FactoredMatrix(vh.conj().T, (left @ W.entries) / s[:, None], grid, report)


def conjugate(
    A: Union[OperatorMatrix, np.ndarray], W: OperatorMatrix, threshold: float = 1.0e-10
) -> OperatorMatrix:
    """:func:`conjugate_factored` with its factors multiplied out."""
    left, right, grid, report = conjugate_factored(A, W, threshold)
    return OperatorMatrix(left @ right, grid, report)


@dataclass
class Metric:
    """Symmetric positive-definite bilinear form on grid samples."""

    matrix: OperatorMatrix

    def __post_init__(self):
        m = self.matrix.entries
        scale = float(np.max(np.abs(m))) or 1.0
        if float(np.max(np.abs(m - m.conj().T))) > 1.0e-12 * scale:
            raise MetricDegeneracyError("metric matrix is not symmetric")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if eigs[0] <= 0.0:
            raise MetricDegeneracyError(
                f"metric is not positive definite (min eigenvalue {eigs[0]:.3e})"
            )

    @property
    def n(self) -> int:
        return self.matrix.n


def transform_metric(G: Metric, W: OperatorMatrix) -> Metric:
    """Pull back a metric through a coordinate transformation: ``W* G W``.

    The product must be symmetric up to roundoff; its symmetric part then
    goes through :class:`Metric`'s positive-definiteness check, so a
    rank-deficient ``W`` degenerates the metric and raises
    :class:`MetricDegeneracyError`.
    """
    if G.n != W.n:
        raise DomainError(f"dimension mismatch: G is {G.n}, W is {W.n}")
    m = W.entries.conj().T @ G.matrix.entries @ W.entries
    scale = float(np.max(np.abs(m))) or 1.0
    if float(np.max(np.abs(m - m.conj().T))) > 1.0e-10 * scale:
        raise MetricDegeneracyError("transformed metric lost symmetry")
    return Metric(OperatorMatrix((m + m.conj().T) / 2.0, W.grid or G.matrix.grid))


def locality_score(A: Union[OperatorMatrix, FactoredMatrix], bandwidth_nodes: int) -> float:
    """Fraction of squared Frobenius mass within ``|i - j| <= bandwidth``.

    Uses periodic index distance when the matrix carries a periodic grid.
    A zero matrix scores 1.0 (vacuously local). The physical bandwidth is
    ``bandwidth_nodes * grid.spacing``, which :func:`grid._order` checks. A
    :class:`FactoredMatrix` is scored one block of rows at a time and never formed.
    """
    bandwidth_nodes = _order(bandwidth_nodes, "bandwidth")
    n = A.n if isinstance(A, OperatorMatrix) else len(A.left)
    near = min(bandwidth_nodes, n - 1)
    offsets = set(range(-near, near + 1))
    if A.grid is not None and A.grid.periodic:
        # the wrapped diagonals k = +-(n - d) lie at periodic distance d
        offsets |= {s * (n - d) for d in range(1, near + 1) for s in (-1, 1)}
    blocks = [(0, A.entries)] if isinstance(A, OperatorMatrix) else (
        (r0, A.left[r0:r1] @ A.right) for r0, r1 in _row_blocks(n, n)
    )
    total = band = 0.0
    for r0, rows in blocks:
        total += _squared_mass(rows)
        # diagonal k of the matrix is diagonal k + r0 of the rows from r0 on
        band += sum(_squared_mass(np.diagonal(rows, k + r0)) for k in sorted(offsets))
    if total == 0.0:
        return 1.0
    return band / total


def _squared_mass(values: np.ndarray) -> float:
    """Sum of ``|v|^2`` over all entries, by numpy's own summation, which
    unlike BLAS ``dot`` does not change with the thread count."""
    return float(np.sum(np.abs(values) ** 2))
