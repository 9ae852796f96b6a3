"""Formal differential operators and their fixpoint chains.

An operator is a finite sum of tensor terms A (x) d^n(-) plus an
optional constant species, applied at the counting level; the chain for
its greatest fixpoint starts at the all-ones sequence (the counting
shadow of the terminal species) and iterates the operator, reporting
per-degree stabilization.  Divergence is a verdict, never an exception.
``apply_operator`` and the chain share one step over
``species.binomial_convolution``; the chain reads the operator once and
recomputes only the degrees of each iterate that can still move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .counting import (
    ConvergenceReport,
    CountSeq,
    contact_order,
    detect_convergence,
)
from .errors import HorizonExhausted
from .species import SpeciesExpr, binomial_convolution, counts_upto, require_valid


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


def _read_counts(D: DiffOperator, h: int):
    """The constant's and each coefficient's counts through degree h."""
    constant = counts_upto(D.constant, h) if D.constant is not None else None
    return constant, tuple((counts_upto(a, h), order) for a, order in D.terms)


def _step(counts, x, keep: int, out_h: int) -> tuple:
    """Entries 0..out_h of D(x) from the operator's counts (``_read_counts``
    through at least out_h).

    Entries 0..keep-1 are copied from x, the caller vouching that they
    cannot move; the rest come from one binomial convolution per term.
    """
    constant, terms = counts
    if constant is not None:
        vals = constant[keep : out_h + 1]
    else:
        vals = (0,) * (out_h + 1 - keep)
    for a, order in terms:
        row = binomial_convolution(a, x[order:], keep, out_h + 1)
        vals = [u + v for u, v in zip(vals, row)]
    return (*x[:keep], *vals)


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
    return CountSeq(_step(_read_counts(D, out_h), x.coeffs, 0, out_h))


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

    Degree n of D(t) reads t only at degrees up to n + mo, mo the
    operator's largest derivative order.  So when t_k agrees with t_(k-1)
    on its first p entries, t_(k+1) agrees with t_k on its first p - mo:
    each step copies that prefix and convolves only the degrees past it,
    and a fully stable iterate gives the next one by dropping its last mo
    degrees.  The operator is validated and its counts read once; only
    the iterates truncated to degrees 0..N are held, with the current
    full iterate, so memory is O(h0 + max_iter * N) for the starting
    horizon h0 = N + mo * (max_iter + 1).
    """
    D.validate()
    if max_iter is None:
        max_iter = default_max_iter(N)
    mo = D.max_order
    h = N + mo * (max_iter + 1)  # the current iterate's horizon
    t = (1,) * (h + 1)  # may run past h: only t[0..h] is read
    counts = _read_counts(D, h - mo)
    truncated = [CountSeq(t[: N + 1])]
    p = 0  # the current iterate agrees with the one before on t[0..p-1]
    for _ in range(max_iter):
        h -= mo
        keep = p = max(p - mo, 0)
        if keep <= h:
            prev, t = t, _step(counts, t, keep, h)
            while p <= h and t[p] == prev[p]:
                p += 1
        truncated.append(truncated[-1] if p > N else CountSeq(t[: N + 1]))
    truncated = tuple(truncated)
    convergence = detect_convergence(truncated, N)
    contact = None
    if convergence.converged:
        contact = fixpoint_check(D, CountSeq(t[: h + 1]), N)
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
