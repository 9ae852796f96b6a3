"""Formal differential operators and their fixpoint chains.

An operator is a finite sum of tensor terms A (x) d^n(-) plus an
optional constant species, applied at the counting level; the chain for
its greatest fixpoint starts at the all-ones sequence (the counting
shadow of the terminal species) and iterates the operator, reporting
per-degree stabilization.  Divergence is a verdict, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .counting import (
    ConvergenceReport,
    CountSeq,
    contact_order,
    count_seq,
    detect_convergence,
)
from .errors import HorizonExhausted
from .species import SpeciesExpr, binomial_convolution, require_valid


@dataclass(frozen=True)
class DiffOperator:
    """D(G) = constant + sum of coeff (x) d^order (G)."""

    terms: Tuple[Tuple[SpeciesExpr, int], ...]
    constant: SpeciesExpr | None = None

    def __post_init__(self):
        if not self.terms and self.constant is None:
            raise ValueError("an operator needs at least one term or a constant")
        if any(order < 0 for _, order in self.terms):
            raise ValueError("derivative orders must be nonnegative")

    @property
    def max_order(self) -> int:
        return max((order for _, order in self.terms), default=0)

    def validate(self) -> None:
        for coeff, _ in self.terms:
            require_valid(coeff)
        if self.constant is not None:
            require_valid(self.constant)


def apply_operator(D: DiffOperator, x: CountSeq, minimum_horizon: int = 0) -> CountSeq:
    """Coefficientwise image of a counting sequence under the operator.

    The output horizon shrinks by the operator's maximal derivative
    order; coefficient species are consulted by the exact recurrences.
    """
    D.validate()
    out_h = x.horizon - D.max_order
    if out_h < minimum_horizon:
        raise HorizonExhausted(
            f"horizon {x.horizon} leaves only {out_h} after order {D.max_order}"
        )
    if D.constant is not None:
        vals = count_seq(D.constant, out_h).coeffs
    else:
        vals = (0,) * (out_h + 1)
    for a, order in D.terms:
        row = binomial_convolution(count_seq(a, out_h).coeffs, x.coeffs[order:], 0, out_h + 1)
        vals = tuple(u + v for u, v in zip(vals, row))
    return CountSeq(vals)


@dataclass(frozen=True)
class ChainReport:
    """Iterates of the fixpoint chain with the convergence verdict."""

    operator: DiffOperator
    horizon: int
    iterates: Tuple[CountSeq, ...]
    convergence: ConvergenceReport
    fixpoint_contact: object | None  # set when converged

    @property
    def converged(self) -> bool:
        return self.convergence.converged

    @property
    def limit(self) -> CountSeq | None:
        return self.convergence.limit

    @property
    def witness(self) -> int | None:
        return self.convergence.witness


def default_max_iter(N: int) -> int:
    # Affine order-zero chains settle one degree per step within N+1
    # iterations; the factor two covers derivative shifts.
    return 2 * (N + 2)


def adamek_chain(D: DiffOperator, N: int, max_iter: int | None = None) -> ChainReport:
    """Iterate the operator from the all-ones sequence and judge stability.

    A degree is unstable when it still changes between the final two
    iterates; when every degree up to N stabilizes the limit is a
    fixpoint up to contact order N (certified on the report).
    """
    D.validate()
    if max_iter is None:
        max_iter = default_max_iter(N)
    mo = D.max_order
    h0 = N + mo * (max_iter + 1)
    t = CountSeq((1,) * (h0 + 1))
    iterates = [t]
    for _ in range(max_iter):
        t = apply_operator(D, t)
        iterates.append(t)
    truncated = tuple(s.truncate(N) for s in iterates)
    convergence = detect_convergence(truncated, N)
    contact = None
    if convergence.converged:
        contact = fixpoint_check(D, iterates[-1], N)
    return ChainReport(D, N, truncated, convergence, contact)


def fixpoint_check(D: DiffOperator, x: CountSeq, N: int):
    """Contact order of x with D(x), both truncated to horizon N."""
    D.validate()
    if x.horizon < N + D.max_order:
        raise HorizonExhausted(
            f"need horizon {N + D.max_order} to compare at contact order {N}"
        )
    image = apply_operator(D, x, minimum_horizon=N)
    return contact_order(x.truncate(N), image.truncate(N))
