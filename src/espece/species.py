"""Species expressions, labelled structures, and symmetric-group actions.

A species expression is a tree of primitives (sets, subsets, linear and
cyclic orders, permutations, representables, explicit tables) and
combinators (sum, Hadamard and Cauchy product, substitution, derivative,
pointing, the two adjoints of the derivative, and truncations).  For a
degree n the engine enumerates every structure on the label set
{1,...,n} in a canonical nested-tuple encoding, and relabeling along a
permutation re-canonicalizes, giving the S_n-action.

Conventions fixed here:
  * Cyc[0] = 0 and Cyc[1] = 1; the (n-1)! count holds for n >= 1.
  * Lin[0], Perm[0], Subsets[0] are singletons; ExpPlus[0] = LinPlus[0] = 0.
  * Derivative contexts adjoin reserved labels 0, -1, -2, ... (outermost
    first); permutations never move labels <= 0.
  * Substitution blocks are listed by least element and the outer
    structure lives on block ranks 1..k.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass, fields
from typing import Dict, Tuple

from .errors import (
    BudgetExceeded,
    Diagnostic,
    EnumerationTooLarge,
    InvalidExpr,
    StructureNotOfExpr,
)
from .groups import FiniteAction, Permutation, all_permutations, element_images

ENUMERATION_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# Expression nodes


class SpeciesExpr:
    """Base class of species expression nodes.

    Operators: ``+`` sum, ``*`` Cauchy product, ``&`` Hadamard product,
    ``f(g)`` substitution.
    """

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Cauchy(self, other)

    def __and__(self, other):
        return Hadamard(self, other)

    def __call__(self, other):
        return Substitute(self, other)


# Live nodes by (class, fields).  Weak values: a node leaves the table when
# nothing else holds it, so the table never needs clearing.
_NODES = weakref.WeakValueDictionary()


class _Interned(type):
    """Hash-consing (Filliatre & Conchon, 2006): constructing a node equal
    to a live one returns that node, so equality is identity and a node's
    hash is computed once, from its children's stored hashes."""

    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        key = (cls, *vars(node).values())
        live = _NODES.get(key)
        if live is not None:
            return live
        object.__setattr__(node, "_hash", hash(key))
        _NODES[key] = node
        return node


class _Node(SpeciesExpr, metaclass=_Interned):
    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and unpickled nodes go through the intern table as well
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Zero(_Node):
    pass


@dataclass(frozen=True, eq=False)
class One(_Node):
    """The Cauchy unit y[0]: one structure on the empty label set."""


@dataclass(frozen=True, eq=False)
class X(_Node):
    """The singleton species y[1]."""


@dataclass(frozen=True, eq=False)
class Representable(_Node):
    """y[k]: the k! bijections {1..k} -> A when |A| = k, nothing else."""

    k: int


@dataclass(frozen=True, eq=False)
class Exp(_Node):
    """One structure (the label set itself) at every degree."""


@dataclass(frozen=True, eq=False)
class ExpPlus(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Lin(_Node):
    """Linear orders; the regular (free transitive) action at each degree."""


@dataclass(frozen=True, eq=False)
class LinPlus(_Node):
    pass


@dataclass(frozen=True, eq=False)
class Cyc(_Node):
    """Oriented cycles; empty at degree 0 by convention."""


@dataclass(frozen=True, eq=False)
class Perm(_Node):
    """Permutations of the label set, acted on by conjugation."""


@dataclass(frozen=True, eq=False)
class Subsets(_Node):
    pass


_TABLE_REGISTRY: Dict[str, "Table"] = {}


class Table(SpeciesExpr):
    """Explicit finite species: degreewise atom names plus full actions.

    ``atoms[n]`` lists the structures at degree n and ``action[n]`` maps
    every one-line permutation of S_n to an atom relabeling.  Degrees
    beyond ``max_degree`` are an error, not an implicit zero.
    """

    def __init__(self, name, atoms, action):
        self.name = str(name)
        self.atoms = tuple(tuple(row) for row in atoms)
        self.action = tuple(
            {tuple(sig): dict(mapping) for sig, mapping in row.items()} for row in action
        )
        normal = (
            self.name,
            self.atoms,
            tuple(
                tuple(sorted((sig, tuple(sorted(mapping.items()))) for sig, mapping in row.items()))
                for row in self.action
            ),
        )
        digest = hashlib.sha1(repr(normal).encode()).hexdigest()[:16]
        self.key = f"{self.name}:{digest}"
        self._hash = hash(("Table", self.key))
        _TABLE_REGISTRY[self.key] = self

    @property
    def max_degree(self) -> int:
        return len(self.atoms) - 1

    def __eq__(self, other):
        return isinstance(other, Table) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Table({self.name!r}, max_degree={self.max_degree})"


@dataclass(frozen=True, eq=False)
class Sum(_Node):
    f: SpeciesExpr
    g: SpeciesExpr


@dataclass(frozen=True, eq=False)
class Hadamard(_Node):
    f: SpeciesExpr
    g: SpeciesExpr


@dataclass(frozen=True, eq=False)
class Cauchy(_Node):
    f: SpeciesExpr
    g: SpeciesExpr


@dataclass(frozen=True, eq=False)
class Substitute(_Node):
    f: SpeciesExpr
    g: SpeciesExpr


@dataclass(frozen=True, eq=False)
class Derive(_Node):
    f: SpeciesExpr


@dataclass(frozen=True, eq=False)
class Pointing(_Node):
    """A chosen label plus a derivative structure on its complement."""

    f: SpeciesExpr


@dataclass(frozen=True, eq=False)
class AdjL(_Node):
    """Left adjoint of the derivative: a chosen label plus a structure
    on its complement."""

    f: SpeciesExpr


@dataclass(frozen=True, eq=False)
class AdjR(_Node):
    """Right adjoint of the derivative: one structure on each label's
    complement."""

    f: SpeciesExpr


@dataclass(frozen=True, eq=False)
class DeriveL(_Node):
    """The composite derivative-after-left-adjoint."""

    f: SpeciesExpr


@dataclass(frozen=True, eq=False)
class TruncLeft(_Node):
    """Kill every degree above the cutoff."""

    f: SpeciesExpr
    cutoff: int


@dataclass(frozen=True, eq=False)
class TruncRight(_Node):
    """Replace every degree above the cutoff by a singleton."""

    f: SpeciesExpr
    cutoff: int


_PRIMHOLDS = (Zero, One, X, Representable, Exp, ExpPlus, Lin, LinPlus, Cyc, Perm, Subsets, Table)


def children(e: SpeciesExpr) -> Tuple[SpeciesExpr, ...]:
    if isinstance(e, (Sum, Hadamard, Cauchy, Substitute)):
        return (e.f, e.g)
    if isinstance(e, (Derive, Pointing, AdjL, AdjR, DeriveL, TruncLeft, TruncRight)):
        return (e.f,)
    return ()


# ---------------------------------------------------------------------------
# Validation


_VALIDATED: set = set()


def validate(e: SpeciesExpr) -> Tuple[Diagnostic, ...]:
    """Structured diagnostics; an empty tuple means the expression is ok.

    The tree is walked with an explicit stack, so nesting depth is not
    bounded by the recursion limit, and every valid subexpression is
    remembered for later calls.
    """
    diags: list = []
    stack = [(e, "root", None)]
    while stack:
        node, path, mark = stack.pop()
        if mark is not None:
            # every child is done: mark holds the diagnostic counts from
            # before the node's own checks and from before its children
            first, before = mark
            if isinstance(node, Substitute) and len(diags) == before:
                _validate_inner(node, path, diags)
            if len(diags) == first:
                _VALIDATED.add(node)
            continue
        if node in _VALIDATED:
            continue
        first = len(diags)
        if isinstance(node, Representable) and node.k < 0:
            diags.append(Diagnostic("NegativeDegree", path, f"Y({node.k})"))
        if isinstance(node, (TruncLeft, TruncRight)) and node.cutoff < 0:
            diags.append(Diagnostic("NegativeCutoff", path, f"cutoff {node.cutoff}"))
        if isinstance(node, Table):
            _validate_table(node, path, diags)
        stack.append((node, path, (first, len(diags))))
        kids = children(node)
        for i in reversed(range(len(kids))):
            stack.append((kids[i], f"{path}.{i}", None))
    return tuple(diags)


def _validate_inner(e: Substitute, path, diags):
    try:
        if _card(e.g, 0) != 0:
            diags.append(
                Diagnostic(
                    "InnerNotPositive",
                    path,
                    "substitution requires the inner species to be empty at degree 0",
                )
            )
    except BudgetExceeded as exc:
        diags.append(Diagnostic("BudgetExceeded", path, str(exc)))


def _validate_table(e: Table, path, diags):
    for n, row in enumerate(e.atoms):
        if len(set(row)) != len(row):
            diags.append(Diagnostic("DuplicateAtoms", path, f"degree {n}"))
        action = e.action[n] if n < len(e.action) else None
        if action is None:
            diags.append(Diagnostic("MissingAction", path, f"degree {n}"))
            continue
        expected = {p.images for p in all_permutations(n)}
        if set(action) != expected:
            diags.append(Diagnostic("IncompleteAction", path, f"degree {n}"))
            continue
        ident = tuple(range(1, n + 1))
        if any(action[ident].get(a) != a for a in row):
            diags.append(Diagnostic("IdentityNotFixed", path, f"degree {n}"))
        for sig, mapping in action.items():
            if sorted(mapping) != sorted(row) or sorted(mapping.values()) != sorted(row):
                diags.append(
                    Diagnostic("NonBijectiveAction", path, f"degree {n}, permutation {sig}")
                )
                break


def require_valid(e: SpeciesExpr) -> None:
    diags = validate(e)
    if diags:
        raise InvalidExpr(diags)


# ---------------------------------------------------------------------------
# Exact cardinalities (the counting recurrences)


# node -> [|e[0]|, ..., |e[h]|]; a sequence is only ever extended
_COUNT_CACHE: dict = {}
# inner species g -> rows of its partial Bell triangle, B(m, k) at [k][m]
_BELL_CACHE: dict = {}


def binomial_convolution(a, b, start: int, stop: int) -> list:
    """Entries start..stop-1 of c_n = sum_k C(n, k) a_k b_(n-k).

    The counting shadow of the Cauchy product.  ``a`` and ``b`` are plain
    sequences with at least ``stop`` entries; zero coefficients of either
    are skipped.
    """
    support = [(k, v) for k, v in enumerate(a[:stop]) if v]
    out = []
    for n in range(start, stop):
        total = 0
        for k, v in support:
            if k > n:
                break
            w = b[n - k]
            if w:
                total += math.comb(n, k) * v * w
        out.append(total)
    return out


def _fill_bell_row(rows, j: int, top: int, gs, support) -> None:
    """Extend row j of a partial Bell triangle through degree ``top``.

    B(m, j) = sum_i C(m-1, i-1) g_i B(m-i, j-1) (Bergeron, Labelle and
    Leroux 1998, section 1.4); it reads g only at sizes up to m - j + 1.
    """
    while len(rows) <= j:
        rows.append([0] * len(rows))  # B(m, k) = 0 for m < k
    row = rows[j]
    if j == 1:  # B(m, 1) = g_m
        row.extend(gs[len(row) : top + 1])
        return
    prev = rows[j - 1]
    for m in range(len(row), top + 1):
        total = 0
        for i in support:
            if i > m - j + 1:
                break
            total += math.comb(m - 1, i - 1) * gs[i] * prev[m - i]
        row.append(total)


def _substitute_counts(g, fs, gs, start: int, stop: int) -> list:
    """Counts of f o g at degrees start..stop-1: sum_k f_k B(n, k).

    Only the k with f_k != 0 are summed, and B(n, k) reads g at sizes
    1..n-k+1, so g is consulted exactly where the sum over integer
    partitions consulted it.
    """
    rows = _BELL_CACHE.setdefault(g, [[1]])
    ks = [k for k in range(1, stop) if fs[k]]
    support = [i for i in range(1, len(gs)) if gs[i]]
    out = []
    for n in range(start, stop):
        used = [k for k in ks if k <= n]
        if n == 0 or not used:
            out.append(fs[0] if n == 0 else 0)
            continue
        for j in range(1, used[-1] + 1):
            _fill_bell_row(rows, j, n - max(j, used[0]) + j, gs, support)
        out.append(sum(fs[k] * rows[k][n] for k in used))
    return out


def _reads(e, N: int):
    """(child, horizon) pairs that the counts of e at degrees 0..N read."""
    if isinstance(e, (Sum, Hadamard, Cauchy, Pointing, DeriveL)):
        return tuple((c, N) for c in children(e))
    if isinstance(e, Substitute):
        fs = _COUNT_CACHE.get(e.f, ())
        if len(fs) <= N:
            return ((e.f, N),)
        kmin = next((k for k in range(1, N + 1) if fs[k]), None)
        if kmin is None:
            return ((e.f, N),)
        return ((e.f, N), (e.g, N - kmin + 1))
    if isinstance(e, Derive):
        return ((e.f, N + 1),)
    if isinstance(e, (AdjL, AdjR)):
        return ((e.f, N - 1),)
    if isinstance(e, (TruncLeft, TruncRight)):
        return ((e.f, min(N, e.cutoff)),)
    return ()


def _count_at(e, n: int, f=None, g=None) -> int:
    """|e[n]| from the counts f (and g) of e's children."""
    if isinstance(e, Zero):
        return 0
    if isinstance(e, One):
        return 1 if n == 0 else 0
    if isinstance(e, X):
        return 1 if n == 1 else 0
    if isinstance(e, Representable):
        return math.factorial(e.k) if n == e.k else 0
    if isinstance(e, Exp):
        return 1
    if isinstance(e, ExpPlus):
        return 1 if n >= 1 else 0
    if isinstance(e, (Lin, Perm)):
        return math.factorial(n)
    if isinstance(e, LinPlus):
        return math.factorial(n) if n >= 1 else 0
    if isinstance(e, Cyc):
        return math.factorial(n - 1) if n >= 1 else 0
    if isinstance(e, Subsets):
        return 2 ** n
    if isinstance(e, Table):
        if n > e.max_degree:
            raise BudgetExceeded(
                f"table {e.name!r} holds degrees 0..{e.max_degree}, degree {n} requested"
            )
        return len(e.atoms[n])
    if isinstance(e, Sum):
        return f[n] + g[n]
    if isinstance(e, Hadamard):
        return f[n] * g[n]
    if isinstance(e, Derive):
        return f[n + 1]
    if isinstance(e, Pointing):
        return n * f[n]
    if isinstance(e, AdjL):
        return n * f[n - 1] if n >= 1 else 0
    if isinstance(e, AdjR):
        return f[n - 1] ** n if n >= 1 else 1
    if isinstance(e, DeriveL):
        return (n + 1) * f[n]
    if isinstance(e, TruncLeft):
        return f[n] if n <= e.cutoff else 0
    if isinstance(e, TruncRight):
        return f[n] if n <= e.cutoff else 1
    raise TypeError(f"not a species expression: {e!r}")


def _extend(e, seq: list, N: int) -> None:
    """Append the counts of e at degrees len(seq)..N; its reads are ready."""
    kids = [_COUNT_CACHE.get(c, ()) for c in children(e)]
    if isinstance(e, Cauchy):
        seq.extend(binomial_convolution(*kids, len(seq), N + 1))
    elif isinstance(e, Substitute):
        seq.extend(_substitute_counts(e.g, *kids, len(seq), N + 1))
    else:
        for n in range(len(seq), N + 1):
            seq.append(_count_at(e, n, *kids))


def _counts(e, N: int) -> list:
    """The cached counts of e, extended through degree N.

    Nodes are evaluated in an explicit post-order, so nesting depth is not
    bounded by the recursion limit, and each node is counted once per
    degree.  Children are evaluated only through the degrees that e reads
    at 0..N, so a Table raises BudgetExceeded exactly when one of those
    lies beyond it.
    """
    seq = _COUNT_CACHE.get(e)
    if seq is not None and len(seq) > N:
        return seq
    stack = [(e, N)]
    while stack:
        node, n = stack[-1]
        seq = _COUNT_CACHE.setdefault(node, [])
        if len(seq) > n:
            stack.pop()
            continue
        missing = [(c, m) for c, m in _reads(node, n) if len(_COUNT_CACHE.get(c, ())) <= m]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        _extend(node, seq, n)
    return _COUNT_CACHE[e]


def _card(e, n: int) -> int:
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    return _counts(e, n)[n]


def cardinality(e: SpeciesExpr, n: int) -> int:
    """|e[n]|, computed by exact recurrences (no enumeration)."""
    require_valid(e)
    return _card(e, n)


def counts_upto(e: SpeciesExpr, N: int) -> Tuple[int, ...]:
    """(|e[0]|, ..., |e[N]|) by the exact recurrences, validating e once."""
    require_valid(e)
    return tuple(_counts(e, N)[: N + 1])


def degree_budget(e: SpeciesExpr, n: int) -> int:
    """Maximum degree of any primitive table consulted evaluating e at n."""
    if isinstance(e, _PRIMHOLDS):
        return n
    if isinstance(e, (Sum, Hadamard, Cauchy, Substitute)):
        return max(degree_budget(e.f, n), degree_budget(e.g, n))
    if isinstance(e, Derive):
        return degree_budget(e.f, n + 1)
    if isinstance(e, (Pointing, DeriveL)):
        return degree_budget(e.f, n)
    if isinstance(e, (AdjL, AdjR)):
        return degree_budget(e.f, max(n - 1, 0))
    if isinstance(e, (TruncLeft, TruncRight)):
        return degree_budget(e.f, min(n, e.cutoff))
    raise TypeError(f"not a species expression: {e!r}")


# ---------------------------------------------------------------------------
# Canonical structures


def fresh_star(labels) -> int:
    """The next reserved derivative label relative to a label set."""
    nonpos = [x for x in labels if x <= 0]
    return 0 if not nonpos else min(nonpos) - 1


def _min_rotation(xs: Tuple[int, ...]) -> Tuple[int, ...]:
    i = xs.index(min(xs))
    return xs[i:] + xs[:i]


def transport(enc, mapping: dict):
    """Relabel a canonical structure along a bijection of positive labels.

    Every label ``mapping`` does not mention is fixed, and it mentions no
    label <= 0: a derivative context adjoins 0, or one below the least
    reserved label already in its label set, and a bijection of positive
    labels keeps that choice, so no label set is needed.  The result is
    canonical again.
    """
    tag = enc[0]
    get = mapping.get  # get(x, x) fixes what the mapping leaves out
    if tag == "pair":
        U, sf, sg = enc[1]
        moved = tuple(sorted(map(get, U, U)))
        return (tag, (moved, transport(sf, mapping), transport(sg, mapping)))
    if tag in ("lin", "rep"):
        return (tag, tuple(map(get, enc[1], enc[1])))
    if tag in ("set", "subset"):
        return (tag, tuple(sorted(map(get, enc[1], enc[1]))))
    if tag == "cyc":
        return (tag, _min_rotation(tuple(map(get, enc[1], enc[1]))))
    if tag in ("inl", "inr", "deriv"):
        return (tag, transport(enc[1], mapping))
    if tag == "perm":
        return (tag, tuple(sorted([(get(x, x), get(y, y)) for x, y in enc[1]])))
    if tag == "both":
        sf, sg = enc[1]
        return (tag, (transport(sf, mapping), transport(sg, mapping)))
    if tag in ("point", "adjl"):
        a, inner = enc[1]
        return (tag, (get(a, a), transport(inner, mapping)))
    if tag == "tuple":
        return (tag, tuple(sorted([(get(a, a), transport(s, mapping)) for a, s in enc[1]])))
    if tag == "part":
        blocks, outer, inners = enc[1]
        moved = [tuple(sorted(map(get, b, b))) for b in blocks]
        order = sorted(range(len(blocks)), key=moved.__getitem__)
        rho = {old + 1: new for new, old in enumerate(order, start=1)}  # outer block ranks
        parts = tuple(transport(inners[i], mapping) for i in order)
        return (tag, (tuple(moved[i] for i in order), transport(outer, rho), parts))
    if tag == "atom":
        _, key, name, labels = enc
        moved = tuple(map(get, labels, labels))
        new_labels = tuple(sorted(moved))
        rank = {y: i for i, y in enumerate(new_labels, start=1)}
        pi = tuple(rank[y] for y in moved)  # where each (sorted) label's image lands
        return (tag, key, _TABLE_REGISTRY[key].action[len(labels)][pi][name], new_labels)
    if tag == "top":
        return enc
    raise ValueError(f"unknown structure tag {tag!r}")


def act_structure(sigma: Permutation, enc):
    """Relabel a canonical degree-n structure along a permutation of 1..n."""
    return transport(enc, sigma.mapping)


# ---------------------------------------------------------------------------
# Enumeration


_ENUM_CACHE: dict = {}


def _set_partitions(labels: Tuple[int, ...]):
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (tuple(sorted((first,) + part[i])),) + part[i + 1 :]
        yield ((first,),) + part


def structures_on(e: SpeciesExpr, labels: Tuple[int, ...]) -> Tuple:
    """All canonical e-structures on an arbitrary sorted label tuple."""
    key = (e, labels)
    hit = _ENUM_CACHE.get(key)
    if hit is not None:
        return hit
    out = tuple(sorted(_build(e, labels)))
    _ENUM_CACHE[key] = out
    return out


def _build(e, labels):
    n = len(labels)
    if isinstance(e, Zero):
        return
    elif isinstance(e, One):
        if n == 0:
            yield ("rep", ())
    elif isinstance(e, X):
        if n == 1:
            yield ("rep", (labels[0],))
    elif isinstance(e, Representable):
        if n == e.k:
            for p in itertools.permutations(labels):
                yield ("rep", p)
    elif isinstance(e, Exp):
        yield ("set", labels)
    elif isinstance(e, ExpPlus):
        if n >= 1:
            yield ("set", labels)
    elif isinstance(e, Lin):
        for p in itertools.permutations(labels):
            yield ("lin", p)
    elif isinstance(e, LinPlus):
        if n >= 1:
            for p in itertools.permutations(labels):
                yield ("lin", p)
    elif isinstance(e, Cyc):
        if n >= 1:
            for p in itertools.permutations(labels[1:]):
                yield ("cyc", (labels[0],) + p)
    elif isinstance(e, Perm):
        for p in itertools.permutations(labels):
            yield ("perm", tuple(zip(labels, p)))
    elif isinstance(e, Subsets):
        for r in range(n + 1):
            for sub in itertools.combinations(labels, r):
                yield ("subset", sub)
    elif isinstance(e, Table):
        if n > e.max_degree:
            raise BudgetExceeded(
                f"table {e.name!r} holds degrees 0..{e.max_degree}, degree {n} requested"
            )
        for name in e.atoms[n]:
            yield ("atom", e.key, name, labels)
    elif isinstance(e, Sum):
        for s in structures_on(e.f, labels):
            yield ("inl", s)
        for s in structures_on(e.g, labels):
            yield ("inr", s)
    elif isinstance(e, Hadamard):
        if _card(e.f, n) and _card(e.g, n):
            for sf in structures_on(e.f, labels):
                for sg in structures_on(e.g, labels):
                    yield ("both", (sf, sg))
    elif isinstance(e, Cauchy):
        for r in range(n + 1):
            if _card(e.f, r) == 0 or _card(e.g, n - r) == 0:
                continue
            for U in itertools.combinations(labels, r):
                rest = tuple(x for x in labels if x not in U)
                for sf in structures_on(e.f, U):
                    for sg in structures_on(e.g, rest):
                        yield ("pair", (U, sf, sg))
    elif isinstance(e, Substitute):
        for part in _set_partitions(labels):
            blocks = tuple(sorted(part))
            k = len(blocks)
            if _card(e.f, k) == 0:
                continue
            if any(_card(e.g, len(b)) == 0 for b in blocks):
                continue
            inner_lists = [structures_on(e.g, b) for b in blocks]
            for outer in structures_on(e.f, tuple(range(1, k + 1))):
                for inners in itertools.product(*inner_lists):
                    yield ("part", (blocks, outer, inners))
    elif isinstance(e, Derive):
        star = fresh_star(labels)
        inner_labels = tuple(sorted(labels + (star,)))
        for s in structures_on(e.f, inner_labels):
            yield ("deriv", s)
    elif isinstance(e, Pointing):
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            star = fresh_star(rest)
            for s in structures_on(e.f, tuple(sorted(rest + (star,)))):
                yield ("point", (a, s))
    elif isinstance(e, AdjL):
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            for s in structures_on(e.f, rest):
                yield ("adjl", (a, s))
    elif isinstance(e, AdjR):
        if n == 0:
            yield ("tuple", ())
            return
        if _card(e.f, n - 1) == 0:
            return
        per_label = []
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            per_label.append([(a, s) for s in structures_on(e.f, rest)])
        for combo in itertools.product(*per_label):
            yield ("tuple", combo)
    elif isinstance(e, DeriveL):
        yield from _build(Derive(AdjL(e.f)), labels)
    elif isinstance(e, TruncLeft):
        if n <= e.cutoff:
            yield from structures_on(e.f, labels)
    elif isinstance(e, TruncRight):
        if n <= e.cutoff:
            yield from structures_on(e.f, labels)
        else:
            yield ("top",)
    else:
        raise TypeError(f"not a species expression: {e!r}")


@dataclass
class DegreeData:
    """All structures of an expression at one degree, with the S_n-action."""

    expr: SpeciesExpr
    degree: int
    structures: Tuple
    action: FiniteAction

    @property
    def index(self):
        return self.action.index


_DEGREE_CACHE: dict = {}


def enumerate_degree(e: SpeciesExpr, n: int, cap: int | None = None) -> DegreeData:
    """Enumerate e on {1,...,n}; counts are checked against the recurrences."""
    require_valid(e)
    total = _card(e, n)
    cap = ENUMERATION_CAP if cap is None else cap
    if total > cap:
        raise EnumerationTooLarge(f"{total} structures at degree {n} exceed cap {cap}")
    key = (e, n)
    hit = _DEGREE_CACHE.get(key)
    if hit is not None:
        return hit
    structs = structures_on(e, tuple(range(1, n + 1)))
    if len(structs) != total:
        raise AssertionError(
            f"enumeration/count mismatch for {e!r} at degree {n}: "
            f"{len(structs)} enumerated vs {total} counted"
        )
    action = FiniteAction(n, structs, lambda sig, s: act_structure(sig, s))
    data = DegreeData(e, n, structs, action)
    _DEGREE_CACHE[key] = data
    return data


def act(e: SpeciesExpr, sigma: Permutation, s):
    """Relabel a structure of e along sigma, re-canonicalizing."""
    data = enumerate_degree(e, sigma.degree)
    if s not in data.index:
        raise StructureNotOfExpr(f"{s!r} is not a structure of {e!r} at degree {sigma.degree}")
    return act_structure(sigma, s)


def as_table(e: SpeciesExpr, max_degree: int, name: str | None = None) -> Table:
    """Materialize an expression as an explicit Table up to a degree."""
    require_valid(e)
    atoms_rows, action_rows = [], []
    for n in range(max_degree + 1):
        data = enumerate_degree(e, n)
        names = [f"s{i}" for i in range(len(data.structures))]
        row = {
            sigma.images: {names[i]: names[y] for i, y in enumerate(images)}
            for sigma, images in element_images(data.action)
        }
        atoms_rows.append(tuple(names))
        action_rows.append(row)
    return Table(name or f"table<{type(e).__name__}>", atoms_rows, action_rows)


def clear_caches() -> None:
    """Drop all memoized enumerations and counts (mainly for tests)."""
    _COUNT_CACHE.clear()
    _BELL_CACHE.clear()
    _ENUM_CACHE.clear()
    _DEGREE_CACHE.clear()
    _VALIDATED.clear()


def enc_to_json(s):
    """Canonical encodings as JSON-ready nested lists."""
    if isinstance(s, tuple):
        return [enc_to_json(x) for x in s]
    return s
