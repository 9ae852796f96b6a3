"""Exact counting sequences and EGF arithmetic.

CountSeq holds arbitrary-precision structure counts f_0..f_N, EgfSeq the
exact rationals f_n/n!.  Sequence operations mirror the species
combinators; operations that consume degrees (the derivative) shrink the
horizon instead of guessing values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import ne
from typing import Tuple

from .errors import DegreeMismatch, HorizonExhausted, InnerNotPositive
from .records import Record
from .species import SpeciesExpr, binomial_convolution, counts_upto

AT_LEAST_HORIZON = "at-least-horizon"
NO_CONTACT = "none"


class _Sequence(Record):
    """Exact coefficients c_0..c_N; values beyond N are unknown.  A
    sequence needs at least its degree-0 entry; ``_EMPTY`` says so."""

    coeffs: tuple

    def __init__(self, coeffs):
        if len(coeffs) == 0:
            raise ValueError(self._EMPTY)
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def computed(cls, coeffs):
        """A sequence the engine computed from counts or from checked
        sequences, valid by construction: only its degree-0 entry is
        checked."""
        seq = object.__new__(cls)
        _Sequence.__init__(seq, coeffs)
        return seq

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        if n < 0 or n > self.horizon:
            raise HorizonExhausted(f"degree {n} beyond horizon {self.horizon}")
        return self.coeffs[n]

    def truncate(self, N: int):
        if N > self.horizon:
            raise HorizonExhausted(f"cannot extend horizon {self.horizon} to {N}")
        return self.computed(self.coeffs[: N + 1])

    def render(self) -> str:
        return ", ".join(map(str, self.coeffs))


class CountSeq(_Sequence):
    """Exact nonnegative counts f_0..f_N, a tuple of ints.

    ``CountSeq(coeffs)`` checks every entry; the engine builds the
    sequences it computes with ``CountSeq.computed``.
    """

    _EMPTY = "a counting sequence needs at least the degree-0 entry"

    def __init__(self, coeffs):
        super().__init__(coeffs)
        # plain nonnegative ints pass in C; the loop decides everything else
        plain = set(map(type, coeffs)) <= {int} and min(coeffs) >= 0
        if not plain and any((not isinstance(c, int)) or c < 0 for c in coeffs):
            raise ValueError(f"counts must be nonnegative integers: {coeffs}")


class EgfSeq(_Sequence):
    """Exact exponential generating coefficients g_n = f_n/n!, a tuple of
    Fractions."""

    _EMPTY = "an EGF sequence needs at least the degree-0 entry"


def count_seq(e: SpeciesExpr, N: int) -> CountSeq:
    """Counts of e at degrees 0..N by the exact recurrences."""
    return CountSeq.computed(counts_upto(e, N))


def egf(e: SpeciesExpr, N: int) -> EgfSeq:
    return egf_of_counts(count_seq(e, N))


def egf_of_counts(c: CountSeq) -> EgfSeq:
    return EgfSeq(tuple(Fraction(v, math.factorial(n)) for n, v in enumerate(c.coeffs)))


def seq_sum(a: CountSeq, b: CountSeq) -> CountSeq:
    return CountSeq.computed(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def seq_hadamard(a: CountSeq, b: CountSeq) -> CountSeq:
    return CountSeq.computed(tuple(x * y for x, y in zip(a.coeffs, b.coeffs)))


def seq_cauchy(a: CountSeq, b: CountSeq) -> CountSeq:
    """Binomial convolution, the counting shadow of the Cauchy product."""
    h = min(a.horizon, b.horizon)
    return CountSeq.computed(tuple(binomial_convolution(a.coeffs, b.coeffs, 0, h + 1)))


def seq_derive(a: CountSeq) -> CountSeq:
    if a.horizon < 1:
        raise HorizonExhausted("derivative needs horizon >= 1")
    return CountSeq.computed(a.coeffs[1:])


def _egf_mul(a, b, N):
    return tuple(
        sum(a[k] * b[n - k] for k in range(n + 1) if k < len(a) and n - k < len(b))
        for n in range(N + 1)
    )


def seq_substitute_egf(f: EgfSeq, g: EgfSeq, N: int) -> EgfSeq:
    """Formal power-series composition f(g(x)) truncated at degree N."""
    if f.horizon < N or g.horizon < N:
        raise HorizonExhausted(f"need both horizons >= {N}")
    if g[0] != 0:
        raise InnerNotPositive("composition requires the inner series to vanish at 0")
    out = [Fraction(0)] * (N + 1)
    out[0] = f[0]
    power = [Fraction(1)] + [Fraction(0)] * N  # g^0
    for k in range(1, N + 1):
        power = list(_egf_mul(power, g.coeffs, N))
        fk = f[k]
        if fk:
            for n in range(N + 1):
                out[n] += fk * power[n]
    return EgfSeq(tuple(out))


def contact_order(a: CountSeq, b: CountSeq):
    """Largest n with a_k = b_k for all k <= n, within the shared horizon.

    Returns "at-least-horizon" when the sequences agree through the whole
    shared horizon and "none" when they already differ at degree 0.
    """
    for k, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return NO_CONTACT if k == 0 else k - 1
    return AT_LEAST_HORIZON


def contact_at_least(value, n: int) -> bool:
    return value == AT_LEAST_HORIZON or (isinstance(value, int) and value >= n)


class ConvergenceReport(Record):
    """Per-degree stabilization indices and the overall verdict."""

    stable_from: Tuple  # index per degree, or None when unstable
    converged: bool
    limit: CountSeq | None
    witness: int | None  # least unstable degree when not converged

    def iterations_to_converge(self) -> int | None:
        if not self.converged:
            return None
        return max(self.stable_from)


def detect_convergence(seqs, N: int) -> ConvergenceReport:
    """Stabilization of a run of counting sequences, degree by degree.

    A degree is unstable when its value still changes between the last
    two provided iterates; otherwise its index is the first iterate from
    which the value is constant to the end.  A single iterate has made no
    step, so it certifies no degree: every degree is unstable.

    Each pair of consecutive iterates is compared once, through degree N,
    and an iterate that is the same object as the one before is skipped.
    """
    seqs = list(seqs)
    if not seqs:
        raise ValueError("need at least one sequence")
    rows = [s.coeffs for s in seqs]
    if min(map(len, rows)) <= N:
        short = next(s for s in seqs if s.horizon < N)
        raise DegreeMismatch(f"horizon {short.horizon} < {N}")
    degrees = range(N + 1)
    changed = {}  # degree -> index of the last iterate at which it moved
    for i in range(1, len(rows)):
        if rows[i] is not rows[i - 1]:
            changed.update(zip(compress(degrees, map(ne, rows[i - 1], rows[i])), repeat(i)))
    last = len(rows) - 1
    stable = tuple(None if j == last else j for j in map(changed.get, degrees, repeat(0)))
    converged = None not in stable
    limit = CountSeq.computed(rows[-1][: N + 1]) if converged else None
    witness = None if converged else stable.index(None)
    return ConvergenceReport(stable, converged, limit, witness)
