"""Natural transformations between species at truncation.

Since the underlying groupoid has no morphisms across degrees, a
transformation truncated at horizon N is exactly an independent family
of equivariant maps, one per degree k <= N; counts of such families are
therefore products of per-degree equivariant-map counts.  Isomorphism of
species at truncation is degreewise isomorphism of S_k-sets, which is
strictly stronger than equality of counting sequences.
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

from . import caches, groups
from .errors import InvalidAlgebra, ShapeMismatch, TooManyMaps
from .groups import (
    action_signature,
    actions_isomorphic,
    count_equivariant_maps,
    enumerate_equivariant_maps,
    generator_lines,
    permutation_array,
    product_sums,
)
from .records import Record
from .species import (
    AdjR,
    Cauchy,
    Cyc,
    Derive,
    DeriveL,
    Exp,
    Hadamard,
    Lin,
    One,
    Perm,
    Pointing,
    Representable,
    SpeciesExpr,
    Subsets,
    Substitute,
    Sum,
    X,
    cardinality,
    cauchy_layout,
    enumerate_degree,
    generator_arrays,
)

DEFAULT_FAMILY: Tuple[SpeciesExpr, ...] = (X(), Exp(), Lin(), Cyc(), Subsets())

# Per-degree structure budget for degreewise isomorphism checks; suite
# horizons are clamped so both sides stay under this at every degree.
ISO_POINT_CAP = 20000


class NatTrans(Record):
    """A degreewise family of maps: ``components[k]`` lists, for each
    source structure on 1..k in sorted order, the index of its image among
    the target's sorted structures, for k = 0..horizon."""

    source: SpeciesExpr
    target: SpeciesExpr
    horizon: int
    components: Tuple[Tuple[int, ...], ...]

    def component(self, k: int) -> Tuple[int, ...]:
        if not 0 <= k < len(self.components):
            raise ShapeMismatch(f"no component at degree {k}")
        return self.components[k]

    def __call__(self, k: int, enc):
        """The image of the structure ``enc`` on 1..k."""
        comp = self.component(k)
        try:
            i = comp[enumerate_degree(self.source, k).index[enc]]
            return enumerate_degree(self.target, k).points[i]
        except (KeyError, IndexError):
            raise ShapeMismatch(f"no image of {enc!r} in the degree-{k} component") from None


def build_nat(source, target, horizon, fn) -> NatTrans:
    """Tabulate fn(k, structure) over every source structure, k <= horizon.

    Raises ShapeMismatch when fn returns a structure that is not one of
    the target's at that degree."""
    comps = []
    for k in range(horizon + 1):
        points = enumerate_degree(source, k).points
        index = enumerate_degree(target, k).index
        comp = tuple([index.get(fn(k, s)) for s in points])
        if None in comp:
            bad = points[comp.index(None)]
            raise ShapeMismatch(f"the image of {bad!r} is not a degree-{k} structure of {target!r}")
        comps.append(comp)
    return NatTrans(source, target, horizon, tuple(comps))


def identity_nat(e: SpeciesExpr, N: int) -> NatTrans:
    return NatTrans(e, e, N, tuple(tuple(range(enumerate_degree(e, k).size)) for k in range(N + 1)))


def _maps_into(c, m: int, n: int) -> bool:
    """c lists m indices, each below n."""
    return len(c) == m and (not c or (0 <= min(c) and max(c) < n))


def check_naturality(t: NatTrans) -> bool:
    """Each component a map from the source's points into the target's,
    equivariant against the generator arrays."""
    if len(t.components) <= t.horizon:
        return False
    for k in range(t.horizon + 1):
        c = t.components[k]
        src, tgt = enumerate_degree(t.source, k), enumerate_degree(t.target, k)
        if not _maps_into(c, src.size, tgt.size):
            return False
        for sg, tg in zip(src.generator_images(), tgt.generator_images()):
            if any(c[sg[i]] != tg[ci] for i, ci in enumerate(c)):
                return False
    return True


@caches.memo
def count_nat(f: SpeciesExpr, g: SpeciesExpr, N: int):
    """Per-degree equivariant-map counts and their product."""
    per_degree = []
    cumulative = 1
    for k in range(N + 1):
        n = count_equivariant_maps(enumerate_degree(f, k), enumerate_degree(g, k))
        per_degree.append(n)
        cumulative *= n
    return tuple(per_degree), cumulative


def enumerate_nat(f: SpeciesExpr, g: SpeciesExpr, N: int, limit: int):
    """All truncated natural transformations f -> g, as NatTrans values."""
    per_degree, cumulative = count_nat(f, g, N)
    if cumulative > limit:
        raise TooManyMaps(f"{cumulative} transformations exceed limit {limit}")
    degree_maps = [
        enumerate_equivariant_maps(enumerate_degree(f, k), enumerate_degree(g, k), limit)
        for k in range(N + 1)
    ]
    out = tuple(NatTrans(f, g, N, combo) for combo in itertools.product(*degree_maps))
    assert len(out) == cumulative
    return out


class IsoResult(Record):
    isomorphic: bool
    witness_degree: int | None = None
    detail: tuple = ()

    def __bool__(self) -> bool:
        return self.isomorphic


@caches.memo
def iso_check(f: SpeciesExpr, g: SpeciesExpr, N: int) -> IsoResult:
    """Degreewise S_k-set isomorphism up to horizon N.

    Equal generator arrays are the same action, which settles degree k
    without listing a structure.  Above ``groups.MAX_DEGREE`` only equal
    structures settle it, so two different species whose arrays agree
    there still meet the cap on S_k in ``actions_isomorphic``.
    """
    for k in range(N + 1):
        a = enumerate_degree(f, k)
        b = enumerate_degree(g, k)
        if k > groups.MAX_DEGREE:
            same = a.points == b.points
        else:
            same = a.generator_images() == b.generator_images()
        if same:
            continue
        if not actions_isomorphic(a, b):
            return IsoResult(False, k, (action_signature(a), action_signature(b)))
    return IsoResult(True)


# ---------------------------------------------------------------------------
# The named canonical isomorphisms


SUITE_NAMES = (
    "leibniz",
    "chain_rule",
    "perm_decomp",
    "der_cyc",
    "der_perm",
    "napier",
    "commutation",
    "der_R",
    "R_der",
    "lin_free",
)


class SuiteEntry(Record):
    name: str
    args: str
    horizon: int
    passed: bool
    witness_degree: int | None = None
    detail: tuple = ()


class SuiteReport(Record):
    entries: Tuple[SuiteEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self):
        by_name: Dict[str, list] = {}
        for e in self.entries:
            by_name.setdefault(e.name, []).append(e)
        out = []
        for name in sorted(by_name):
            entries = by_name[name]
            bad = [e for e in entries if not e.passed]
            if not bad:
                out.append(f"{name}: pass ({len(entries)} case(s))")
            else:
                first = bad[0]
                out.append(
                    f"{name}: FAIL [{first.args}] at degree {first.witness_degree}"
                )
        return out


def _feasible_horizon(exprs, N):
    h = N
    for k in range(N + 1):
        for e in exprs:
            if cardinality(e, k) > ISO_POINT_CAP:
                return min(h, k - 1)
    return h


def _iso_case(name, args, lhs, rhs, N):
    h = _feasible_horizon((lhs, rhs), N)
    res = iso_check(lhs, rhs, h)
    return SuiteEntry(name, args, h, res.isomorphic, res.witness_degree, res.detail)


def _positive(family):
    return tuple(e for e in family if cardinality(e, 0) == 0)


@caches.memo
def canonical_iso_suite(N: int = 5, names=None, family=None) -> SuiteReport:
    """Verify the named canonical isomorphisms degreewise up to N.

    Horizons are clamped per case when enumeration size demands it (the
    clamp used is recorded on the entry).
    """
    names = tuple(names) if names else SUITE_NAMES
    family = tuple(family) if family else DEFAULT_FAMILY
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite names: {unknown}")
    entries = []
    for name in names:
        if name == "leibniz":
            for f, g in itertools.product(family, family):
                entries.append(
                    _iso_case(
                        name,
                        f"{type(f).__name__},{type(g).__name__}",
                        Derive(Cauchy(f, g)),
                        Sum(Cauchy(Derive(f), g), Cauchy(f, Derive(g))),
                        N,
                    )
                )
        elif name == "chain_rule":
            for f in family:
                for g in _positive(family):
                    entries.append(
                        _iso_case(
                            name,
                            f"{type(f).__name__},{type(g).__name__}",
                            Derive(Substitute(f, g)),
                            Cauchy(Substitute(Derive(f), g), Derive(g)),
                            N,
                        )
                    )
        elif name == "perm_decomp":
            entries.append(_iso_case(name, "Perm", Perm(), Substitute(Exp(), Cyc()), N))
        elif name == "der_cyc":
            entries.append(_iso_case(name, "Cyc", Derive(Cyc()), Lin(), N))
        elif name == "der_perm":
            entries.append(_iso_case(name, "Perm", Derive(Perm()), Cauchy(Perm(), Lin()), N))
        elif name == "napier":
            entries.append(_iso_case(name, "Exp", Derive(Exp()), Exp(), N))
        elif name == "commutation":
            for f in family:
                entries.append(
                    _iso_case(
                        name,
                        type(f).__name__,
                        DeriveL(f),
                        Sum(f, Pointing(f)),
                        N,
                    )
                )
        elif name == "der_R":
            for f in family:
                entries.append(
                    _iso_case(
                        name,
                        type(f).__name__,
                        Derive(AdjR(f)),
                        Hadamard(AdjR(Derive(f)), f),
                        N,
                    )
                )
        elif name == "R_der":
            # Counting-level identity: the right adjoint applied after the
            # derivative has counts (f_n)^n; no fixed expression computes
            # the degree-indexed power, so this one is numeric.
            for f in family:
                ok, witness = True, None
                for k in range(N + 1):
                    expected = cardinality(f, k) ** k if k >= 1 else 1
                    if cardinality(AdjR(Derive(f)), k) != expected:
                        ok, witness = False, k
                        break
                entries.append(SuiteEntry(name, type(f).__name__, N, ok, witness))
        elif name == "lin_free":
            tower = None
            for k in range(N + 1):
                rep = Representable(k)
                tower = rep if tower is None else Sum(tower, rep)
            entries.append(_iso_case(name, "Lin", Lin(), tower, N))
    return SuiteReport(tuple(entries))


# ---------------------------------------------------------------------------
# Monoids under the Cauchy product


class MonoidReport(Record):
    ok: bool
    failures: Tuple  # (law, degree) pairs


@caches.memo
def check_monoid(f: SpeciesExpr, mu: NatTrans, eta, N: int) -> MonoidReport:
    """Unit laws, associativity, and shuffle equivariance, degreewise.

    ``mu`` is a transformation Cauchy(f,f) -> f and ``eta`` a degree-0
    structure of f.  Each law is checked on point indices: mu's component
    ``m[k]`` lists the positions of its images among f's structures, and a
    pair of Cauchy(f,f) is addressed through ``cauchy_layout``.  A shuffle
    that keeps the split 1..p moves each factor of a pair by its own
    generator arrays.  Raises ShapeMismatch
    when mu misses a structure of Cauchy(f,f) at a degree <= N or sends
    one off f.
    """
    failures = []
    ff = Cauchy(f, f)
    if mu.source != ff or mu.target != f:
        raise ShapeMismatch("multiplication must map Cauchy(f,f) to f")
    unit = enumerate_degree(f, 0).index
    if eta not in unit:
        raise ShapeMismatch("unit must be a degree-0 structure of the carrier")
    e = unit[eta]
    m = [mu.component(k) for k in range(N + 1)]
    for k, mk in enumerate(m):
        if not _maps_into(mk, cardinality(ff, k), cardinality(f, k)):
            raise ShapeMismatch(f"the degree-{k} component is not a map from {ff!r} to {f!r}")
    layouts = [cauchy_layout(f, f, k) for k in range(N + 1)]
    if not check_naturality(mu):
        failures.append(("naturality", -1))
    for k in range(N + 1):
        mk, layout = m[k], layouts[k]
        if () in layout:  # pairs ((), eta, s)
            off, _, c = layout[()]
            if mk[off + e * c : off + e * c + c] != tuple(range(c)):
                failures.append(("left-unit", k))
        whole = tuple(range(1, k + 1))
        if whole in layout:  # pairs (1..k, s, eta)
            off, a, c = layout[whole]
            if mk[off + e : off + a * c : c] != tuple(range(a)):
                failures.append(("right-unit", k))
        if not _associative(m, layouts, k):
            failures.append(("associativity", k))
        arrays = generator_arrays(f, k)
        for p in range(k + 1):
            head = tuple(range(1, p + 1))
            if head not in layout:
                continue
            off, a, c = layout[head]
            block = mk[off : off + a * c]
            tail = tuple(range(p + 1, k + 1))
            # (shuffle, where it sends each point of the block)
            shuffles = [
                (line + tail, product_sums([x * c for x in arr], range(c)))
                for line, arr in zip(generator_lines(p), generator_arrays(f, p))
            ]
            shuffles += [
                (head + tuple([p + x for x in line]), product_sums(range(0, a * c, c), arr))
                for line, arr in zip(generator_lines(k - p), generator_arrays(f, k - p))
            ]
            for images, moved in shuffles:
                moved_f = permutation_array(arrays, images)
                if [block[i] for i in moved] != [moved_f[y] for y in block]:
                    failures.append(("shuffle-equivariance", k))
                    break
    return MonoidReport(not failures, tuple(failures))


def _associative(m, layouts, k: int) -> bool:
    """mu(mu(s1, s2), s3) = mu(s1, mu(s2, s3)) for every triple at degree k.

    A triple is a pair (W, (U', s1, s2), s3) of Cauchy(Cauchy(f,f), f):
    U' is a block of Cauchy(f,f) at |W|, in ranks of W, and U the labels
    it ranks.  The right side is the pair (U, s1, (M, s2, s3)), with M the
    ranks of W minus U among the labels outside U.
    """
    mk, layout = m[k], layouts[k]
    labels = range(1, k + 1)
    for W, (off_w, _, c) in layout.items():
        mr = m[len(W)]
        for inner, (off_u, a, b) in layouts[len(W)].items():
            U = tuple([W[x - 1] for x in inner])
            rest = [x for x in labels if x not in U]
            M = tuple([i + 1 for i, x in enumerate(rest) if x in W])
            off_r, _, c_r = layout[U]
            mku = m[k - len(U)]
            mid = layouts[k - len(U)][M][0]
            # both sides over (i1, i2, i3), row-major
            left = [mk[off_w + y * c + i3] for y in mr[off_u : off_u + a * b] for i3 in range(c)]
            mids = mku[mid : mid + b * c]
            if left != [mk[x + y] for x in range(off_r, off_r + a * c_r, c_r) for y in mids]:
                return False
    return True


@caches.memo
def lin_concat_mu(N: int) -> NatTrans:
    """Concatenation of linear orders as a transformation L*L -> L."""

    def fn(k, s):
        _, (_, left, right) = s
        return ("lin", left[1] + right[1])

    return build_nat(Cauchy(Lin(), Lin()), Lin(), N, fn)


@caches.memo
def exp_mu(N: int) -> NatTrans:
    """The unique multiplication E*E -> E (union of the two parts)."""

    def fn(k, s):
        return ("set", tuple(range(1, k + 1)))

    return build_nat(Cauchy(Exp(), Exp()), Exp(), N, fn)


# ---------------------------------------------------------------------------
# Derivative algebras and their tensor


class PartialAlgebra(Record):
    """A species with a chosen map from its derivative to itself."""

    carrier: SpeciesExpr
    xi: NatTrans


def _check_algebra(a: PartialAlgebra, N: int) -> None:
    if a.xi.source != Derive(a.carrier) or a.xi.target != a.carrier:
        raise InvalidAlgebra("structure map must have shape Derive(carrier) -> carrier")
    if a.xi.horizon < N:
        raise InvalidAlgebra(f"algebra horizon {a.xi.horizon} below {N}")
    if not check_naturality(a.xi):
        raise InvalidAlgebra("structure map is not equivariant")


@caches.memo
def exp_algebra(N: int) -> PartialAlgebra:
    """The unique derivative algebra on the exponential species."""
    xi = build_nat(Derive(Exp()), Exp(), N, lambda k, s: ("set", tuple(range(1, k + 1))))
    return PartialAlgebra(Exp(), xi)


@caches.memo
def one_algebra(N: int) -> PartialAlgebra:
    """The unit algebra: the derivative of the unit is empty."""
    xi = NatTrans(Derive(One()), One(), N, ((),) * (N + 1))
    return PartialAlgebra(One(), xi)


@caches.memo
def tensor_partial_algebras(a: PartialAlgebra, b: PartialAlgebra, N: int) -> PartialAlgebra:
    """Tensor two derivative algebras along the Leibniz decomposition.

    A derivative structure of the product either holds the adjoined point
    in its left part (route it through a's structure map) or in its right
    part (route it through b's); the result is an algebra on the Cauchy
    product of the carriers.  Derive(Cauchy(A, B)) at k lists the pairs of
    Cauchy(A, B) at k + 1 in the same order, the adjoined point as label 1,
    so each block U of that layout goes whole to the block of U's other
    labels, each lowered by one, at degree k: moved row by row along
    a's map at |U| - 1 when U holds label 1, else column by column along
    b's map at k - |U|.
    """
    _check_algebra(a, N)
    _check_algebra(b, N)
    A, B = a.carrier, b.carrier
    carrier = Cauchy(A, B)
    comps = []
    for k in range(N + 1):
        target = cauchy_layout(A, B, k)
        comp = []
        for U, (_, rows, cols) in cauchy_layout(A, B, k + 1).items():
            r = len(U)
            if U[:1] == (1,):
                off, _, _ = target[tuple([x - 1 for x in U[1:]])]
                comp += product_sums([off + x * cols for x in a.xi.components[r - 1]], range(cols))
            else:
                off, _, width = target[tuple([x - 1 for x in U])]
                comp += product_sums(range(off, off + rows * width, width), b.xi.components[k - r])
        comps.append(tuple(comp))
    xi = NatTrans(Derive(carrier), carrier, N, tuple(comps))
    if not check_naturality(xi):
        raise InvalidAlgebra("tensored structure map failed naturality")
    return PartialAlgebra(carrier, xi)


def uniform_subset_coalgebras(N: int) -> Dict[str, NatTrans]:
    """The four uniform families from subsets to their derivative.

    A derivative structure of the subset species is a subset of the label
    set plus the adjoined point; the four maps embed U or its complement
    with or without the adjoined point.
    """
    src = Subsets()
    tgt = Derive(Subsets())

    def make(fn):
        return build_nat(src, tgt, N, lambda k, s: ("deriv", ("subset", fn(k, s[1]))))

    def comp(k, U):
        return tuple(x for x in range(1, k + 1) if x not in U)

    return {
        "U-left": make(lambda k, U: U),
        "U-right": make(lambda k, U: tuple(sorted(U + (0,)))),
        "Uc-left": make(lambda k, U: comp(k, U)),
        "Uc-right": make(lambda k, U: tuple(sorted(comp(k, U) + (0,)))),
    }


def nat_to_json(t: NatTrans):
    def pairs(k):
        source, target = enumerate_degree(t.source, k), enumerate_degree(t.target, k)
        return [[s, target.points[i]] for s, i in zip(source.points, t.components[k])]

    return {
        "horizon": t.horizon,
        "components": {str(k): pairs(k) for k in range(t.horizon + 1)},
    }
