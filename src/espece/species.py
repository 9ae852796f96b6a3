"""Species expressions, labelled structures, and symmetric-group actions.

A species expression is a tree of primitives (sets, subsets, linear and
cyclic orders, permutations, representables, explicit tables) and
combinators (sum, Hadamard and Cauchy product, substitution, derivative,
pointing, the two adjoints of the derivative, and truncations).  For a
degree n the engine enumerates every structure on the label set
{1,...,n} in a canonical nested-tuple encoding, listed in sorted order.
The S_n-action on them is one point-index array per generator of S_n:
each combinator compiles its arrays from its children's arrays by index
arithmetic.  L, L+ and y[k] compile through L = 1 + X.L; the other
primitive leaves relabel structures, their own, to build theirs.

Conventions fixed here:
  * Cyc[0] = 0 and Cyc[1] = 1; the (n-1)! count holds for n >= 1.
  * Lin[0], Perm[0], Subsets[0] are singletons; ExpPlus[0] = LinPlus[0] = 0.
  * Derivative contexts adjoin reserved labels 0, -1, -2, ... (outermost
    first); permutations never move labels <= 0.
  * Substitution blocks are listed by least element and the outer
    structure lives on block ranks 1..k.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import Tuple

from . import caches
from .errors import (
    BudgetExceeded,
    Diagnostic,
    EnumerationTooLarge,
    InvalidExpr,
    StructureNotOfExpr,
)
from .groups import (
    FiniteAction,
    Permutation,
    all_permutations,
    element_images,
    generator_lines,
    induced_arrays,
    permutation_array,
    product_sums,
    restricted,
    shifted_arrays,
)
from .records import Record, bind

ENUMERATION_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# Expression nodes and their rules


class SpeciesExpr:
    """Base class of species expression nodes.

    Operators: ``+`` sum, ``*`` Cauchy product, ``&`` Hadamard product,
    ``f(g)`` substitution.

    Each node kind owns its rules (Bergeron, Labelle and Leroux 1998,
    sections 1.1-1.4): ``children``, its subexpressions in field order;
    ``child_degree(n)``, the degree at which it reads them when evaluated
    at n; ``count(n, *child_counts)`` (or ``counts`` for a range of
    degrees); ``composed_counts``, the counts of itself substituted into;
    ``build(labels)``, its sorted structures; ``compile(n)``, the
    S_n-action on them; and ``check``, ``check_with_children``, its
    validation.
    """

    children: Tuple["SpeciesExpr", ...] = ()
    # composed_counts(hs, gs, start, stop): the counts of self o g at
    # start..stop-1 from self's differential equation, given g's counts gs
    # and the composite's own hs at 0..start-1.  None: the Bell triangle.
    composed_counts = None

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Cauchy(self, other)

    def __and__(self, other):
        return Hadamard(self, other)

    def __call__(self, other):
        return Substitute(self, other)

    def child_degree(self, n: int) -> int:
        return n

    def reads(self, N: int):
        """(child, degree) pairs that the counts at degrees 0..N read."""
        return tuple((c, self.child_degree(N)) for c in self.children)

    def counts(self, start: int, stop: int, *kids) -> list:
        """Counts at degrees start..stop-1; the children's counts are ready."""
        return [self.count(n, *kids) for n in range(start, stop)]

    def build(self, labels):
        """Generator: yields each (child, labels) read, is sent back that
        child's structures, and returns its own, sorted.  A node without
        children defines ``structures(labels)`` instead."""
        return self.structures(labels)
        yield  # never reached; the yield makes every builder a generator

    def compile(self, n):
        """Generator like ``build``: yields each (child, degree) read, is
        sent back that child's generator arrays, and returns its own: for
        each of ``generator_lines(n)``, the indices its sorted structures
        on 1..n go to.  A primitive leaf without a compile of its own
        relabels each of its structures along each line with
        ``relabel(s, get)``, where ``get`` sends label x to ``line[x-1]``;
        it re-canonicalizes."""
        points = structures_on(self, tuple(range(1, n + 1)))
        index = {s: i for i, s in enumerate(points)}
        gets = [((0,) + line).__getitem__ for line in generator_lines(n)]
        return tuple(tuple([index[self.relabel(s, get)] for s in points]) for get in gets)
        yield

    def check(self, path: str, diags: list) -> None:
        pass

    def check_with_children(self, path: str, diags: list) -> None:
        pass


# Live nodes by (class, fields).  Weak values: a node leaves the table when
# nothing else holds it, so the table never needs clearing.
_NODES = weakref.WeakValueDictionary()


class _Interned(type):
    """Hash-consing (Filliatre & Conchon, 2006): constructing a node equal
    to a live one returns that node, so equality is identity and a node's
    hash is computed once, from its children's stored hashes.

    The key (class, *fields) is looked up before anything is built, so a
    hit allocates nothing.  A new node also records its ``children``: the
    fields that are expressions."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            args = bind(cls, args, kwargs)
        key = (cls, *args)
        live = _NODES.get(key)
        if live is not None:
            return live
        if len(args) != len(cls._fields):
            bind(cls, args, {})  # raises the TypeError
        node = cls.__new__(cls)
        attrs = node.__dict__
        attrs.update(zip(cls._fields, args))
        attrs["_hash"] = hash(key)
        attrs["children"] = tuple([v for v in args if isinstance(v, SpeciesExpr)])
        _NODES[key] = node
        return node


class _Node(SpeciesExpr, Record, metaclass=_Interned):
    """A node's fields, repr and immutability are a record's (see
    ``records``); its equality is identity."""

    __eq__ = object.__eq__

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and unpickled nodes go through the intern table as well
        return type(self), self._values(self)


class Zero(_Node):
    def count(self, n):
        return 0

    def structures(self, labels):
        return ()


class _Representable(_Node):
    """The rules of y[k], shared by One = y[0], X = y[1] and Representable."""

    def count(self, n):
        return math.factorial(self.k) if n == self.k else 0

    def structures(self, labels):
        if len(labels) != self.k:
            return ()
        return tuple(("rep", p) for p in itertools.permutations(labels))

    def compile(self, n):
        # y[k] lists L's structures at k under another tag
        if n != self.k:
            return _no_points(n)
        return (yield Lin(), n)


class One(_Representable):
    """The Cauchy unit y[0]: one structure on the empty label set."""

    k = 0


class X(_Representable):
    """The singleton species y[1]."""

    k = 1


class Representable(_Representable):
    """y[k]: the k! bijections {1..k} -> A when |A| = k, nothing else."""

    k: int

    def check(self, path, diags):
        if self.k < 0:
            diags.append(Diagnostic("NegativeDegree", path, f"Y({self.k})"))


class Exp(_Node):
    """One structure (the label set itself) at every degree."""

    def count(self, n):
        return 1

    def structures(self, labels):
        return (("set", labels),)

    def relabel(self, s, get):
        return s  # the whole label set is its own image

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 1, 1)


class ExpPlus(_Node):
    def count(self, n):
        return 1 if n >= 1 else 0

    def structures(self, labels):
        return (("set", labels),) if labels else ()

    relabel = Exp.relabel

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 0, 1)


class Lin(_Node):
    """Linear orders; the regular (free transitive) action at each degree."""

    def count(self, n):
        return math.factorial(n)

    def structures(self, labels):
        return tuple(("lin", p) for p in itertools.permutations(labels))

    def compile(self, n):
        # L = 1 + X.L: Cauchy's blocks follow the lexicographic order of
        # lists.  The base case covers degree 1, which X compiles from.
        if n <= 1:
            return ((0,),)
        return (yield Cauchy(X(), Lin()), n)

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 1, 0)


class LinPlus(_Node):
    def count(self, n):
        return math.factorial(n) if n >= 1 else 0

    def structures(self, labels):
        return tuple(("lin", p) for p in itertools.permutations(labels)) if labels else ()

    def compile(self, n):
        return (yield Cauchy(X(), Lin()), n)

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 0, 0)


class Cyc(_Node):
    """Oriented cycles; empty at degree 0 by convention."""

    def count(self, n):
        return math.factorial(n - 1) if n >= 1 else 0

    def structures(self, labels):
        if not labels:
            return ()
        return tuple(("cyc", labels[:1] + p) for p in itertools.permutations(labels[1:]))

    def relabel(self, s, get):
        xs = tuple(map(get, s[1]))
        i = xs.index(min(xs))  # the least label first
        return ("cyc", xs[i:] + xs[:i])

    def composed_counts(self, hs, gs, start, stop):
        return _cyc_composed(hs, gs, start, stop)


class Perm(_Node):
    """Permutations of the label set, acted on by conjugation."""

    def count(self, n):
        return math.factorial(n)

    def structures(self, labels):
        return tuple(("perm", tuple(zip(labels, p))) for p in itertools.permutations(labels))

    def relabel(self, s, get):
        return ("perm", tuple(sorted([(get(x), get(y)) for x, y in s[1]])))

    # S o G = E o (C o G) = 1/(1 - G) = L o G
    composed_counts = Lin.composed_counts


class Subsets(_Node):
    def count(self, n):
        return 2 ** n

    def structures(self, labels):
        subs = (s for r in range(len(labels) + 1) for s in itertools.combinations(labels, r))
        return tuple(("subset", s) for s in sorted(subs))

    def relabel(self, s, get):
        return ("subset", tuple(sorted(map(get, s[1]))))

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 1, 1, 2)  # P = E * E = exp(2X)


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
        import hashlib  # only a Table digests; most processes build none

        digest = hashlib.sha1(repr(normal).encode()).hexdigest()[:16]
        self.key = f"{self.name}:{digest}"
        self._hash = hash(("Table", self.key))

    @property
    def max_degree(self) -> int:
        return len(self.atoms) - 1

    def __eq__(self, other):
        return isinstance(other, Table) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Table({self.name!r}, max_degree={self.max_degree})"

    def _row(self, n):
        if n > self.max_degree:
            raise BudgetExceeded(
                f"table {self.name!r} holds degrees 0..{self.max_degree}, degree {n} requested"
            )
        return self.atoms[n]

    def count(self, n):
        return len(self._row(n))

    def structures(self, labels):
        return tuple(("atom", self.key, a, labels) for a in sorted(self._row(len(labels))))

    def compile(self, n):
        row = sorted(self._row(n))
        position = {a: i for i, a in enumerate(row)}
        action = self.action[n]
        return tuple(tuple(position[action[line][a]] for a in row) for line in generator_lines(n))
        yield

    def check(self, path, diags):
        for n, row in enumerate(self.atoms):
            first = len(diags)
            if len(set(row)) != len(row):
                diags.append(Diagnostic("DuplicateAtoms", path, f"degree {n}"))
            action = self.action[n] if n < len(self.action) else None
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
            if len(diags) == first:
                _check_homomorphism(action, row, n, path, diags)


def _check_homomorphism(action, row, n, path, diags) -> None:
    """With the identity fixed, the rows are an action of S_n exactly when
    g.(sigma.a) = (g sigma).a for each generator g, every sigma and atom a."""
    for sig in sorted(action):
        on_sig = action[sig]
        for g in generator_lines(n):
            on_g, on_g_sig = action[g], action[tuple([g[v - 1] for v in sig])]
            if any(on_g_sig[a] != on_g[on_sig[a]] for a in row):
                diags.append(Diagnostic("NotAnAction", path, f"degree {n}, permutation {sig}"))
                return


class Sum(_Node):
    f: SpeciesExpr
    g: SpeciesExpr

    def count(self, n, f, g):
        return f[n] + g[n]

    def build(self, labels):
        fs = yield self.f, labels
        gs = yield self.g, labels
        return tuple(("inl", s) for s in fs) + tuple(("inr", s) for s in gs)

    def compile(self, n):
        fa = yield self.f, n
        ga = yield self.g, n
        m = len(fa[0])
        return tuple(f + tuple([x + m for x in g]) for f, g in zip(fa, ga))


class Hadamard(_Node):
    f: SpeciesExpr
    g: SpeciesExpr

    def count(self, n, f, g):
        return f[n] * g[n]

    def build(self, labels):
        n = len(labels)
        if not (_card(self.f, n) and _card(self.g, n)):
            return ()
        fs = yield self.f, labels
        gs = yield self.g, labels
        return tuple(("both", (sf, sg)) for sf in fs for sg in gs)

    def compile(self, n):
        if not (_card(self.f, n) and _card(self.g, n)):
            return _no_points(n)
        fa = yield self.f, n
        ga = yield self.g, n
        m = len(ga[0])
        return tuple(tuple(product_sums([x * m for x in f], g)) for f, g in zip(fa, ga))


class Cauchy(_Node):
    f: SpeciesExpr
    g: SpeciesExpr

    def counts(self, start, stop, f, g):
        return binomial_convolution(f, g, start, stop)

    def build(self, labels):
        n = len(labels)
        out = []
        for r in range(n + 1):
            if _card(self.f, r) == 0 or _card(self.g, n - r) == 0:
                continue
            for U in itertools.combinations(labels, r):
                rest = tuple(x for x in labels if x not in U)
                fs = yield self.f, U
                gs = yield self.g, rest
                out += [("pair", (U, sf, sg)) for sf in fs for sg in gs]
        return tuple(sorted(out))

    def compile(self, n):
        layout = cauchy_layout(self.f, self.g, n)
        labels = tuple(range(1, n + 1))
        fa, ga = {}, {}  # both keyed by |U|
        for r in sorted({len(U) for U in layout}):
            fa[r] = yield self.f, r
            ga[r] = yield self.g, n - r
        out = []
        for j in range(len(generator_lines(n))):
            arr = []
            for U, (_, _, m) in layout.items():
                r = len(U)
                V, fs = restricted(fa[r], n, j, U)
                _, gs = restricted(ga[r], n, j, tuple([x for x in labels if x not in U]))
                base = layout[V][0]
                arr += product_sums([base + x * m for x in fs], gs)
            out.append(tuple(arr))
        return tuple(out)


# (f, g, n) -> the block layout of Cauchy(f, g) on 1..n
_LAYOUT_CACHE = caches.register("Cauchy layouts", {}, len)


def cauchy_layout(f: SpeciesExpr, g: SpeciesExpr, n: int) -> dict:
    """The block layout of Cauchy(f, g) on 1..n (Bergeron, Labelle and
    Leroux 1998, section 1.4).

    The sorted structures ("pair", (U, s1, s2)) fall in one block per label
    set U, the blocks in sorted order of U, and each block is row-major:
    the index i1 of s1 among f's structures on U, then the index i2 of s2
    among g's on the rest.  Maps each U, in that order, to (offset, rows,
    cols) = (the block's first position, |f_|U||, |g_(n-|U|)|), so the
    pair sits at offset + i1 * cols + i2.  Only blocks with structures are
    listed.  The layout is kept per (f, g, n); callers only read it.
    """
    key = (f, g, n)
    layout = _LAYOUT_CACHE.get(key)
    if layout is not None:
        return layout
    layout, total = {}, 0
    for U in sorted(
        U
        for r in range(n + 1)
        if _card(f, r) and _card(g, n - r)
        for U in itertools.combinations(range(1, n + 1), r)
    ):
        rows, cols = _card(f, len(U)), _card(g, n - len(U))
        layout[U] = (total, rows, cols)
        total += rows * cols
    _LAYOUT_CACHE[key] = layout
    caches.add(_LAYOUT_CACHE, layout)
    return layout


class Substitute(_Node):
    f: SpeciesExpr
    g: SpeciesExpr

    def reads(self, N):
        # g is read only through the sizes the nonzero f_k leave room for
        fs = _COUNT_CACHE.get(self.f, ())
        if len(fs) <= N:
            return ((self.f, N),)
        kmin = next((k for k in range(1, N + 1) if fs[k]), None)
        if kmin is None:
            return ((self.f, N),)
        return ((self.f, N), (self.g, N - kmin + 1))

    def counts(self, start, stop, f, g):
        rule = self.f.composed_counts
        if rule is None:
            return _substitute_counts(self.g, f, g, start, stop)
        return rule(_COUNT_CACHE[self], g, start, stop)

    def check_with_children(self, path, diags):
        try:
            if _card(self.g, 0) != 0:
                diags.append(
                    Diagnostic(
                        "InnerNotPositive",
                        path,
                        "substitution requires the inner species to be empty at degree 0",
                    )
                )
        except BudgetExceeded as exc:
            diags.append(Diagnostic("BudgetExceeded", path, str(exc)))

    def build(self, labels):
        out = []
        for part in _set_partitions(labels):
            blocks = tuple(sorted(part))
            k = len(blocks)
            if _card(self.f, k) == 0:
                continue
            if any(_card(self.g, len(b)) == 0 for b in blocks):
                continue
            inner_lists = []
            for b in blocks:
                inner_lists.append((yield self.g, b))
            outers = yield self.f, tuple(range(1, k + 1))
            out += [
                ("part", (blocks, outer, inners))
                for outer in outers
                for inners in itertools.product(*inner_lists)
            ]
        return tuple(sorted(out))

    def compile(self, n):
        # a partition's structures: outer index, then the inner indices in
        # block order, in mixed radix
        parts = []
        for part in _set_partitions(tuple(range(1, n + 1))):
            blocks = tuple(sorted(part))
            if _card(self.f, len(blocks)) and all(_card(self.g, len(b)) for b in blocks):
                parts.append(blocks)
        parts.sort()
        fa, ga = {}, {}
        for k in sorted({len(p) for p in parts}):
            fa[k] = yield self.f, k
        for m in sorted({len(b) for p in parts for b in p}):
            ga[m] = yield self.g, m
        offset, total = {}, 0
        for p in parts:
            offset[p] = total
            total += len(fa[len(p)][0]) * math.prod(len(ga[len(b)][0]) for b in p)
        out = []
        for j in range(len(generator_lines(n))):
            outer = {}  # block-rank permutation -> its array on the outer structures
            arr = []
            for p in parts:
                moved = [restricted(ga[len(b)], n, j, b) for b in p]
                order = sorted(range(len(p)), key=lambda i: moved[i][0])
                new = tuple(moved[i][0] for i in order)
                # old block rank -> new: (1 2), (1 ... j) or the identity
                rho = tuple(order.index(i) + 1 for i in range(len(p)))
                if rho not in outer:
                    outer[rho] = permutation_array(fa[len(p)], rho)
                sizes = [len(ga[len(b)][0]) for b in new]
                base, inner_total = offset[new], math.prod(sizes)
                digits = [[base + x * inner_total for x in outer[rho]]]
                for (_, on_b), t in zip(moved, rho):
                    w = math.prod(sizes[t:])
                    digits.append([x * w for x in on_b])
                arr += product_sums(*digits)
            out.append(tuple(arr))
        return tuple(out)


class Derive(_Node):
    f: SpeciesExpr

    def child_degree(self, n):
        return n + 1

    def counts(self, start, stop, f):
        return f[start + 1 : stop + 1]

    def build(self, labels):
        inner = yield self.f, (fresh_star(labels),) + labels
        return tuple(("deriv", s) for s in inner)

    def compile(self, n):
        return shifted_arrays((yield self.f, n + 1), n + 1)


class Pointing(_Node):
    """A chosen label plus a derivative structure on its complement."""

    f: SpeciesExpr

    def count(self, n, f):
        return n * f[n]

    def build(self, labels):
        out = []
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            inner = yield self.f, (fresh_star(rest),) + rest
            out += [("point", (a, s)) for s in inner]
        return tuple(out)

    def compile(self, n):
        if n == 0:
            return ((),)
        return induced_arrays(n, shifted_arrays((yield self.f, n), n))


class AdjL(_Node):
    """Left adjoint of the derivative: a chosen label plus a structure
    on its complement."""

    f: SpeciesExpr

    def child_degree(self, n):
        return n - 1

    def count(self, n, f):
        return n * f[n - 1] if n >= 1 else 0

    def build(self, labels):
        out = []
        for a in labels:
            inner = yield self.f, tuple(x for x in labels if x != a)
            out += [("adjl", (a, s)) for s in inner]
        return tuple(out)

    def compile(self, n):
        if n == 0:
            return ((),)
        return induced_arrays(n, (yield self.f, n - 1))


class AdjR(_Node):
    """Right adjoint of the derivative: one structure on each label's
    complement."""

    f: SpeciesExpr

    def child_degree(self, n):
        return n - 1

    def count(self, n, f):
        return f[n - 1] ** n if n >= 1 else 1

    def build(self, labels):
        n = len(labels)
        if n == 0:
            return (("tuple", ()),)
        if _card(self.f, n - 1) == 0:
            return ()
        per_label = []
        for a in labels:
            inner = yield self.f, tuple(x for x in labels if x != a)
            per_label.append([(a, s) for s in inner])
        return tuple(("tuple", combo) for combo in itertools.product(*per_label))

    def compile(self, n):
        # one digit per label, the structure on label a's complement, in
        # base |f_n-1| with label 1 the most significant
        if n == 0:
            return ((0,),)
        if _card(self.f, n - 1) == 0:
            return _no_points(n)
        inner = yield self.f, n - 1
        m = len(inner[0])
        labels = range(1, n + 1)
        out = []
        for j, line in enumerate(generator_lines(n)):
            digits = []
            for a in labels:
                _, on_rest = restricted(inner, n, j, tuple([x for x in labels if x != a]))
                w = m ** (n - line[a - 1])
                digits.append([x * w for x in on_rest])
            out.append(tuple(product_sums(*digits)))
        return tuple(out)


class DeriveL(_Node):
    """The composite derivative-after-left-adjoint."""

    f: SpeciesExpr

    def count(self, n, f):
        return (n + 1) * f[n]

    def build(self, labels):
        return (yield Derive(AdjL(self.f)), labels)

    def compile(self, n):
        return (yield Derive(AdjL(self.f)), n)


class _Truncation(_Node):
    """The child up to the cutoff, and ``above`` at every degree above it."""

    f: SpeciesExpr
    cutoff: int

    def child_degree(self, n):
        return min(n, self.cutoff)

    def check(self, path, diags):
        if self.cutoff < 0:
            diags.append(Diagnostic("NegativeCutoff", path, f"cutoff {self.cutoff}"))

    def count(self, n, f):
        return f[n] if n <= self.cutoff else len(self.above)

    def build(self, labels):
        if len(labels) > self.cutoff:
            return self.above
        return (yield self.f, labels)

    def compile(self, n):
        if n > self.cutoff:
            return (tuple(range(len(self.above))),) * len(generator_lines(n))
        return (yield self.f, n)


class TruncLeft(_Truncation):
    """Kill every degree above the cutoff."""

    above = ()


class TruncRight(_Truncation):
    """Replace every degree above the cutoff by a singleton."""

    above = (("top",),)


# ---------------------------------------------------------------------------
# Validation


_VALIDATED = caches.register("validated", set())


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
            if len(diags) == before:
                node.check_with_children(path, diags)
            if len(diags) == first:
                _VALIDATED.add(node)
                caches.add(_VALIDATED, node)
            continue
        if node in _VALIDATED:
            continue
        first = len(diags)
        node.check(path, diags)
        stack.append((node, path, (first, len(diags))))
        kids = node.children
        for i in reversed(range(len(kids))):
            stack.append((kids[i], f"{path}.{i}", None))
    return tuple(diags)


def require_valid(e: SpeciesExpr) -> None:
    diags = validate(e)
    if diags:
        raise InvalidExpr(diags)


# ---------------------------------------------------------------------------
# Exact cardinalities (the counting recurrences)


# node -> [|e[0]|, ..., |e[h]|]; a sequence is only ever extended
_COUNT_CACHE = caches.register("counts", {}, len)
# inner species g -> rows of its partial Bell triangle, B(m, k) at [k][m]
_BELL_CACHE = caches.register("Bell rows", {}, caches.nested)


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
    rows = _BELL_CACHE.setdefault(g, [])
    before = caches.measure(_BELL_CACHE, rows)
    if not rows:
        rows.append([1])  # B(0, 0)
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
    caches.add(_BELL_CACHE, rows, before)
    return out


# The outers whose composite satisfies a differential equation (Flajolet and
# Sedgewick 2009, chapter II; Bergeron, Labelle and Leroux 1998, section
# 1.4) count f o g in O(N^2): degree n reads g_1..g_n and the composite's
# own counts below n, O(n) per degree.  g_0 is not read, as on the Bell
# route, and the unit u_0 = 1 counts inside the sums also when h_0 = 0.


def _unit_composed(hs, gs, start, stop, h0: int, shift: int, scale: int = 1) -> list:
    """u_n = scale sum_k C(n-s, k-s) g_k u_(n-k) from u_0 = 1, with h_0 = h0.

    s = 1: exp(scale G), from U' = scale G' U; s = 0: 1/(1 - G), from
    U = 1 + G U.
    """
    u = [1, *hs[1:start]]
    support = [k for k in range(1, stop) if gs[k]]
    for n in range(len(u), stop):
        total = 0
        for k in support:
            if k > n:
                break
            total += math.comb(n - shift, k - shift) * gs[k] * u[n - k]
        u.append(scale * total)
    return [h0, *u[1:]] if start == 0 else u[start:]


def _cyc_composed(hs, gs, start, stop) -> list:
    """-log(1 - G) from (1 - G) H' = G':
    h_n = g_n + sum_(k<n) C(n-1, k) g_k h_(n-k); h_0 = 0."""
    h = [0, *hs[1:start]]
    support = [k for k in range(1, stop) if gs[k]]
    for n in range(len(h), stop):
        total = gs[n]
        for k in support:
            if k >= n:
                break
            total += math.comb(n - 1, k) * gs[k] * h[n - k]
        h.append(total)
    return h[start:]


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
        missing = [(c, m) for c, m in node.reads(n) if len(_COUNT_CACHE.get(c, ())) <= m]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        kids = [_COUNT_CACHE.get(c, ()) for c in node.children]
        new = node.counts(len(seq), n + 1, *kids)
        caches.add(_COUNT_CACHE, new)
        seq.extend(new)
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
    """Maximum degree of any primitive table consulted evaluating e at n.

    A walk over the ``child_degree`` rules, clamped at 0, on an explicit
    stack that visits each (node, degree) pair once.
    """
    leaves, seen, stack = set(), set(), [(e, n)]
    while stack:
        node, m = item = stack.pop()
        if item not in seen:
            seen.add(item)
            if not node.children:
                leaves.add(m)
            stack.extend((c, max(node.child_degree(m), 0)) for c in node.children)
    return max(leaves)


# ---------------------------------------------------------------------------
# Canonical structures


def fresh_star(labels) -> int:
    """The next reserved derivative label relative to a label set."""
    nonpos = [x for x in labels if x <= 0]
    return 0 if not nonpos else min(nonpos) - 1


# ---------------------------------------------------------------------------
# Enumeration


# (node, labels) -> its sorted structures
_ENUM_CACHE = caches.register("enumerations", {}, len)


def _set_partitions(labels: Tuple[int, ...]):
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (tuple(sorted((first,) + part[i])),) + part[i + 1 :]
        yield ((first,),) + part


def _run(cache: dict, rule: str, key):
    """The result of ``rule`` ("build" or "compile") at key = (node, arg).

    Each rule is suspended at every (child, arg) it reads and runs on an
    explicit stack (a post-order over the reads), so nesting depth is not
    bounded by the recursion limit; every result is cached by its key and
    counted by the cache owner.
    """
    out = cache.get(key)
    stack = [] if out is not None else [(key, getattr(key[0], rule)(key[1]))]
    while stack:
        key, step = stack[-1]
        try:
            read = step.send(out)
        except StopIteration as done:
            stack.pop()
            out = cache[key] = done.value
            caches.add(cache, out)
            continue
        out = cache.get(read)
        if out is None:
            stack.append((read, getattr(read[0], rule)(read[1])))
    return out


def structures_on(e: SpeciesExpr, labels: Tuple[int, ...]) -> Tuple:
    """All canonical e-structures on an arbitrary sorted label tuple, sorted."""
    return _run(_ENUM_CACHE, "build", (e, labels))


# ---------------------------------------------------------------------------
# Compiled actions


# (node, n) -> its generator arrays
_COMPILE_CACHE = caches.register("compiled arrays", {}, caches.nested)


def generator_arrays(e: SpeciesExpr, n: int) -> Tuple[Tuple[int, ...], ...]:
    """For each of ``generator_lines(n)``, the indices it sends e's sorted
    structures on 1..n to.

    Each node compiles from its children's arrays (Bergeron, Labelle and
    Leroux 1998, sections 1.1-1.4, define transport the same way): a
    generator of S_n restricted to a label subset U, in rank order, is the
    identity or a generator of S_|U|, so ``restricted`` reads its array
    off the child's arrays; builders list structures in blocks whose order
    a relabeling keeps, so each image is index arithmetic.  Only leaves
    relabel, their own structures, and L, L+ and y[k] compile from
    Cauchy(X, L) instead.
    """
    return _run(_COMPILE_CACHE, "compile", (e, n))


def _no_points(n: int):
    return ((),) * len(generator_lines(n))


# (node, n) -> its FiniteAction, one slot: its arrays and points are the
# two tables above
_DEGREE_CACHE = caches.register("actions", {})


def enumerate_degree(e: SpeciesExpr, n: int, cap: int | None = None) -> FiniteAction:
    """e on {1,...,n}: one cached S_n-action per (e, n), whose size is the
    count, whose generator arrays compile from the children's arrays and
    whose points are the structures.  They are enumerated only when a
    point is read; the compile and the enumeration are each checked
    against the count."""
    require_valid(e)
    total = _card(e, n)
    cap = ENUMERATION_CAP if cap is None else cap
    if total > cap:
        raise EnumerationTooLarge(f"{total} structures at degree {n} exceed cap {cap}")
    key = (e, n)
    hit = _DEGREE_CACHE.get(key)
    if hit is not None:
        return hit

    def counted(what, out, size):
        if size != total:
            raise AssertionError(
                f"{what}/count mismatch for {e!r} at degree {n}: {size} vs {total} counted"
            )
        return out

    def points():
        structs = structures_on(e, tuple(range(1, n + 1)))
        return counted("enumeration", structs, len(structs))

    def arrays():
        gens = generator_arrays(e, n)
        return counted("compile", gens, len(gens[0]))

    action = _DEGREE_CACHE[key] = FiniteAction(n, total, arrays, points)
    caches.add(_DEGREE_CACHE, action)
    return action


def act(e: SpeciesExpr, sigma: Permutation, s):
    """sigma.s for a structure s of e, read off e's compiled action."""
    action = enumerate_degree(e, sigma.degree)
    if s not in action:
        raise StructureNotOfExpr(f"{s!r} is not a structure of {e!r} at degree {sigma.degree}")
    return action.act(sigma, s)


# ``bench/tracing.py`` counts relabels of one structure under this name;
# the alias goes when the benchmark stops tracing it.
act_structure = act


def as_table(e: SpeciesExpr, N: int, name: str | None = None) -> Table:
    """Materialize an expression as an explicit Table on degrees 0..N."""
    require_valid(e)
    atoms_rows, action_rows = [], []
    for n in range(N + 1):
        action = enumerate_degree(e, n)
        names = [f"s{i}" for i in range(action.size)]
        row = {
            sigma.images: {names[i]: names[y] for i, y in enumerate(images)}
            for sigma, images in element_images(action)
        }
        atoms_rows.append(tuple(names))
        action_rows.append(row)
    return Table(name or f"table<{type(e).__name__}>", atoms_rows, action_rows)


# Empty every memo table: counts, structures, compiled actions, the S_n
# tables and the remembered queries.  A caller that changes a module
# constant (a cap, a window) calls it, since remembered answers were
# computed under the old value.
clear_caches = caches.clear
