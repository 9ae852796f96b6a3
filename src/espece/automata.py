"""Mealy and Moore machines over truncated species.

A machine is a state species E with a dynamics map d from T(E) to E and
an output map s (from T(E) for Mealy, from E for Moore) into an output
species B, all degreewise equivariant.  For dynamics with a right
adjoint the terminal machine's carrier is the degreewise product of the
iterated adjoints applied to B, and this module computes its exact
counting shadow, cross-checkable against internal-hom counts.
"""

from __future__ import annotations

import functools
from typing import Tuple

from . import caches
from .counting import CountSeq
from .errors import (
    BudgetExceeded,
    Diagnostic,
    DivergentProduct,
    InvalidExpr,
    NotSupported,
    ShapeMismatch,
)
from .groups import FiniteAction, count_equivariant_maps, product_sums, shifted_arrays
from .records import Record
from .species import (
    AdjL,
    Cauchy,
    Derive,
    DeriveL,
    Pointing,
    SpeciesExpr,
    _card,
    cardinality,
    cauchy_layout,
    counts_upto,
    enumerate_degree,
    require_valid,
)
from .transforms import NatTrans, _maps_into, check_naturality

PRODUCT_WINDOW = 12
PRODUCT_BOUND = 10 ** 60
ENUM_FACTOR_DEGREE_CAP = 6


# ---------------------------------------------------------------------------
# Dynamics


class _Dynamics(Record):
    """A dynamics T: ``apply(e)`` is T(e), and ``image(f, k)`` is T(f)'s
    component at degree k for f: E1 -> E2, index arithmetic over f's
    component at degree at most k + ``shift``; ``terminal(B, N, start)``
    is ``terminal_counts`` from the ``start``-th factor on."""

    shift = 0

    def terminal(self, B, N, start):
        raise NotSupported(
            "terminal machines for the pointing and derivative-of-adjoint "
            "dynamics are deliberately not computed"
        )


def _blocks(f: NatTrans, n: int, k: int) -> Tuple[int, ...]:
    """T(f) where T(E) lists n blocks of E's structures at degree k: f's
    component at k on each block."""
    if n == 0:
        return ()
    width = cardinality(f.target, k)
    return tuple(product_sums([j * width for j in range(n)], f.component(k)))


class TensorBy(_Dynamics):
    """Dynamics tensoring the state with a fixed species."""

    a: SpeciesExpr

    def apply(self, e):
        return Cauchy(self.a, e)

    def image(self, f, k):
        # the pair (U, i_a, i_E) goes to (U, i_a, f at k - |U| of i_E)
        target = cauchy_layout(self.a, f.target, k)
        out = []
        for U, (_, rows, _) in cauchy_layout(self.a, f.source, k).items():
            off, _, width = target[U]
            out += product_sums(range(off, off + rows * width, width), f.component(k - len(U)))
        return tuple(out)

    def terminal(self, B, N, start):
        if cardinality(self.a, 0) != 0:
            raise InvalidExpr(
                (
                    Diagnostic(
                        "DynamicsNotPositive",
                        "terminal",
                        "tensor dynamics needs a species empty at degree 0",
                    ),
                )
            )

        @functools.cache  # each factor's counts once per call
        def factor_seq(n):
            if n == 0:
                return CountSeq(counts_upto(B, N))
            return hom_day_counts(_cauchy_power(self.a, n), B, N)

        return tuple(
            _certified_product(
                lambda n, k=k: factor_seq(n)[k],
                start,
                lambda k=k: f"terminal(tensor,{B!r}) degree {k}",
            )
            for k in range(N + 1)
        )


class DeriveDyn(_Dynamics):
    shift = 1  # the derivative consumes a degree

    def apply(self, e):
        return Derive(e)

    def image(self, f, k):
        return f.component(k + 1)

    def terminal(self, B, N, start):
        # The assignment adjoint fixes degree 0 at one structure and
        # raises lower counts to powers; after k iterations every degree
        # <= k is pinned at one, so the product is exactly finite.
        # Entries past PRODUCT_BOUND saturate at PRODUCT_BOUND + 1 (0 and 1
        # stay exact), so the running product below crosses the bound at
        # the same factor as with the exact powers, which grow as towers.
        rows = [[min(c, PRODUCT_BOUND + 1) for c in counts_upto(B, N)]]
        for _ in range(N + 1):
            prev = rows[-1]
            rows.append([1] + [_saturated_power(prev[j - 1], j) for j in range(1, N + 1)])
        out = []
        for k in range(N + 1):
            total = 1
            for n in range(start, k + 2):
                total *= rows[n][k]
                if total == 0:
                    break
                if total > PRODUCT_BOUND:
                    raise DivergentProduct(
                        f"terminal(derive,{B!r}) degree {k} exceeds {PRODUCT_BOUND}"
                    )
            out.append(total)
        return tuple(out)


class AdjLDyn(_Dynamics):
    def apply(self, e):
        return AdjL(e)

    def image(self, f, k):
        return _blocks(f, k, k - 1)

    def terminal(self, B, N, start):
        return tuple(
            _certified_product(
                lambda n, k=k: _card(B, k + n),
                start,
                lambda k=k: f"terminal(adjL,{B!r}) degree {k}",
            )
            for k in range(N + 1)
        )


class PointingDyn(_Dynamics):
    def apply(self, e):
        return Pointing(e)

    def image(self, f, k):
        return _blocks(f, k, k)


class DeriveLDyn(_Dynamics):
    def apply(self, e):
        return DeriveL(e)

    def image(self, f, k):
        return _blocks(f, k + 1, k)


def apply_dynamics(dyn, e: SpeciesExpr) -> SpeciesExpr:
    """The species T(e) for a dynamics T."""
    return dyn.apply(e)


# ---------------------------------------------------------------------------
# Machines


class MealyAutomaton(Record):
    dynamics: object
    state: SpeciesExpr
    output: SpeciesExpr
    d: NatTrans
    s: NatTrans
    horizon: int


class MooreAutomaton(Record):
    dynamics: object
    state: SpeciesExpr
    output: SpeciesExpr
    d: NatTrans
    s: NatTrans
    horizon: int


class MachineReport(Record):
    ok: bool
    problems: Tuple[str, ...]


def _check_machine(m, moore: bool) -> MachineReport:
    problems = []
    shifted = apply_dynamics(m.dynamics, m.state)
    if m.d.source != shifted or m.d.target != m.state:
        problems.append("dynamics map must have shape T(state) -> state")
    want_src = m.state if moore else shifted
    if m.s.source != want_src or m.s.target != m.output:
        kind = "state -> output" if moore else "T(state) -> output"
        problems.append(f"output map must have shape {kind}")
    if m.d.horizon < m.horizon or m.s.horizon < m.horizon:
        problems.append("component horizons fall short of the machine horizon")
    if not problems:
        if not check_naturality(m.d):
            problems.append("dynamics map is not equivariant")
        if not check_naturality(m.s):
            problems.append("output map is not equivariant")
    return MachineReport(not problems, tuple(problems))


def check_mealy(m: MealyAutomaton) -> MachineReport:
    return _check_machine(m, moore=False)


def check_moore(m: MooreAutomaton) -> MachineReport:
    return _check_machine(m, moore=True)


def _require_map(t: NatTrans, k: int, source: SpeciesExpr, target: SpeciesExpr) -> None:
    """t's degree-k component maps source's structures into target's."""
    if not _maps_into(t.component(k), cardinality(source, k), cardinality(target, k)):
        raise ShapeMismatch(f"the degree-{k} component is not a map from {source!r} to {target!r}")


def check_morphism(f: NatTrans, m1: MealyAutomaton, m2: MealyAutomaton) -> bool:
    """Morphism laws: f after d equals d' after T(f), and s equals s' after T(f).

    Raises ShapeMismatch when the machines differ in dynamics or output,
    when f's endpoints are not their states, or when a component that the
    laws read is not a map between the sizes of its shape."""
    if m1.dynamics != m2.dynamics or m1.output != m2.output:
        raise ShapeMismatch("machines must share dynamics and output")
    if f.source != m1.state or f.target != m2.state:
        raise ShapeMismatch("morphism endpoints do not match the machines")
    shift = m1.dynamics.shift
    horizon = min(m1.horizon, m2.horizon, f.horizon - shift)
    for k in range(horizon + shift + 1 if horizon >= 0 else 0):  # f's degrees T(f) reads
        _require_map(f, k, f.source, f.target)
    shapes = [(m, apply_dynamics(m.dynamics, m.state)) for m in (m1, m2)]
    for k in range(horizon + 1):
        for m, shifted in shapes:
            _require_map(m.d, k, shifted, m.state)
            _require_map(m.s, k, shifted, m.output)
        fx = m1.dynamics.image(f, k)
        fk, d2, s2 = f.component(k), m2.d.component(k), m2.s.component(k)
        if [fk[y] for y in m1.d.component(k)] != [d2[y] for y in fx]:
            return False
        if list(m1.s.component(k)) != [s2[y] for y in fx]:
            return False
    return True


# ---------------------------------------------------------------------------
# Terminal counts and internal-hom counts


def _certified_product(factor_at, start: int, what) -> int:
    """Product of factor_at(n) for n >= start, certified effectively finite.

    A zero factor short-circuits the product to zero.  Otherwise every
    factor in the trailing stretch of the probe window, ``PRODUCT_WINDOW``
    factors long, must equal one,
    else the tail cannot be certified and DivergentProduct is raised.
    ``what()`` labels that error; it is called only when raising, since
    the label formats the whole expression.
    """
    total = 1
    last_nonone = start - 1
    for n in range(start, start + PRODUCT_WINDOW):
        f = factor_at(n)
        if f == 0:
            return 0
        if f != 1:
            total *= f
            last_nonone = n
            if total > PRODUCT_BOUND:
                raise DivergentProduct(f"{what()}: partial product exceeds {PRODUCT_BOUND}")
    if last_nonone > start + PRODUCT_WINDOW - 5:
        raise DivergentProduct(f"{what()}: factors still nontrivial at the probe horizon")
    return total


@caches.memo
def hom_day_counts(f: SpeciesExpr, g: SpeciesExpr, N: int) -> CountSeq:
    """Counts of the convolution internal hom from f to g, degrees 0..N.

    Degree-k entry: product over m of the number of equivariant maps from
    f at m to g at k+m, the latter acted on through the embedding that
    fixes the first k labels.  Factors with empty source contribute one,
    empty target (with nonempty source) zero, singleton target one.
    """
    require_valid(f)
    require_valid(g)
    out = []
    for k in range(N + 1):
        def factor(m, k=k):
            cf = _card(f, m)
            if cf == 0:
                return 1
            cg = _card(g, k + m)
            if cg == 0:
                return 0
            if cg == 1:
                return 1
            if m > ENUM_FACTOR_DEGREE_CAP:
                raise BudgetExceeded(
                    f"hom factor at inner degree {m} needs enumeration beyond the cap"
                )
            src = enumerate_degree(f, m)
            tgt = _restricted_action(g, k, m)
            return count_equivariant_maps(src, tgt)

        out.append(
            _certified_product(factor, 0, lambda k=k: f"hom({f!r},{g!r}) degree {k}")
        )
    return CountSeq(tuple(out))


def _restricted_action(g: SpeciesExpr, k: int, m: int) -> FiniteAction:
    """g at degree k+m as an S_m-action through the last-m-labels embedding.

    Its generator arrays are g's compiled arrays at degree k+m, each shift
    moving the generators of one degree less onto all labels but the first."""
    action = enumerate_degree(g, k + m)

    def arrays():
        gens = action.generator_images()
        for top in range(k + m, m, -1):
            gens = shifted_arrays(gens, top)
        return gens

    return FiniteAction(m, action.size, arrays, lambda: action.points)


def _cauchy_power(a: SpeciesExpr, n: int) -> SpeciesExpr:
    out = a
    for _ in range(n - 1):
        out = Cauchy(out, a)
    return out


def _saturated_power(b: int, j: int) -> int:
    """b ** j for j >= 1, or PRODUCT_BOUND + 1 when that exceeds PRODUCT_BOUND."""
    if b > 1 and j * (b.bit_length() - 1) >= PRODUCT_BOUND.bit_length():
        return PRODUCT_BOUND + 1  # b ** j >= 2 ** (j * (bit_length - 1))
    return min(b ** j, PRODUCT_BOUND + 1)


@caches.memo
def terminal_counts(dyn, B: SpeciesExpr, N: int, moore: bool = False) -> CountSeq:
    """Counting shadow of the terminal machine's carrier for a dynamics.

    The carrier is the degreewise product of the iterated right adjoints
    of the dynamics applied to the output: the derivative for the
    point-choosing dynamics, the assignment adjoint for the derivative
    dynamics, and the convolution hom for tensor dynamics.  Moore
    machines include the zeroth factor as well.
    """
    require_valid(B)
    return CountSeq(dyn.terminal(B, N, 0 if moore else 1))

