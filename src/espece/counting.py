"""Exact counting sequences and EGF arithmetic.

CountSeq holds arbitrary-precision structure counts f_0..f_N, EgfSeq the
exact rationals f_n/n!.  Sequence operations mirror the species
combinators; operations that consume degrees (the derivative) shrink the
horizon instead of guessing values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DegreeMismatch, HorizonExhausted, InnerNotPositive
from .species import SpeciesExpr, binomial_convolution, counts_upto

AT_LEAST_HORIZON = "at-least-horizon"
NO_CONTACT = "none"


@dataclass(frozen=True)
class CountSeq:
    """Exact nonnegative counts f_0..f_N; values beyond N are unknown."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a counting sequence needs at least the degree-0 entry")
        # plain nonnegative ints pass in C; the loop decides everything else
        plain = set(map(type, self.coeffs)) <= {int} and min(self.coeffs) >= 0
        if not plain and any((not isinstance(c, int)) or c < 0 for c in self.coeffs):
            raise ValueError(f"counts must be nonnegative integers: {self.coeffs}")

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if n < 0 or n > self.horizon:
            raise HorizonExhausted(f"degree {n} beyond horizon {self.horizon}")
        return self.coeffs[n]

    def truncate(self, N: int) -> "CountSeq":
        if N > self.horizon:
            raise HorizonExhausted(f"cannot extend horizon {self.horizon} to {N}")
        return CountSeq(self.coeffs[: N + 1])

    def render(self) -> str:
        return ", ".join(str(c) for c in self.coeffs)


@dataclass(frozen=True)
class EgfSeq:
    """Exact exponential generating coefficients g_n = f_n/n!."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("an EGF sequence needs at least the degree-0 entry")

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if n < 0 or n > self.horizon:
            raise HorizonExhausted(f"degree {n} beyond horizon {self.horizon}")
        return self.coeffs[n]

    def truncate(self, N: int) -> "EgfSeq":
        if N > self.horizon:
            raise HorizonExhausted(f"cannot extend horizon {self.horizon} to {N}")
        return EgfSeq(self.coeffs[: N + 1])

    def render(self) -> str:
        return ", ".join(str(c) for c in self.coeffs)


def count_seq(e: SpeciesExpr, N: int) -> CountSeq:
    """Counts of e at degrees 0..N by the exact recurrences."""
    return CountSeq(counts_upto(e, N))


def egf(e: SpeciesExpr, N: int) -> EgfSeq:
    return egf_of_counts(count_seq(e, N))


def egf_of_counts(c: CountSeq) -> EgfSeq:
    return EgfSeq(tuple(Fraction(v, math.factorial(n)) for n, v in enumerate(c.coeffs)))


def seq_sum(a: CountSeq, b: CountSeq) -> CountSeq:
    return CountSeq(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def seq_hadamard(a: CountSeq, b: CountSeq) -> CountSeq:
    return CountSeq(tuple(x * y for x, y in zip(a.coeffs, b.coeffs)))


def seq_cauchy(a: CountSeq, b: CountSeq) -> CountSeq:
    """Binomial convolution, the counting shadow of the Cauchy product."""
    h = min(a.horizon, b.horizon)
    return CountSeq(tuple(binomial_convolution(a.coeffs, b.coeffs, 0, h + 1)))


def seq_derive(a: CountSeq) -> CountSeq:
    if a.horizon < 1:
        raise HorizonExhausted("derivative needs horizon >= 1")
    return CountSeq(a.coeffs[1:])


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


@dataclass(frozen=True)
class ConvergenceReport:
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
    which the value is constant to the end.
    """
    seqs = list(seqs)
    if not seqs:
        raise ValueError("need at least one sequence")
    for s in seqs:
        if s.horizon < N:
            raise DegreeMismatch(f"horizon {s.horizon} < {N}")
    rows = [s.coeffs for s in seqs]
    stable = []
    for k in range(N + 1):
        last = rows[-1][k]
        if len(rows) >= 2 and rows[-2][k] != last:
            stable.append(None)
            continue
        j = len(rows) - 1
        while j > 0 and rows[j - 1][k] == last:
            j -= 1
        stable.append(j)
    converged = all(s is not None for s in stable)
    limit = CountSeq(rows[-1][: N + 1]) if converged else None
    witness = next((k for k, s in enumerate(stable) if s is None), None)
    return ConvergenceReport(tuple(stable), converged, limit, witness)
