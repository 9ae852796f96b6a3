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
primitive leaves compile in closed form from the one-line tuples their
structures encode, held as bytes, and no structure is ever relabeled.

Conventions fixed here:
  * Cyc[0] = 0 and Cyc[1] = 1; the (n-1)! count holds for n >= 1.
  * Lin[0], Perm[0], Subsets[0] are singletons; ExpPlus[0] = LinPlus[0] = 0.
  * Derivative contexts adjoin reserved labels 0, -1, -2, ... (outermost
    first); permutations never move labels <= 0.
  * Substitution blocks are listed by least element and the outer
    structure lives on block ranks 1..k.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
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
    inverse_array,
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
    at n; ``reads(N)``, when a kind defines it, the (child, degree) pairs
    its counts read instead, asked again once those are counted;
    ``count(n, *child_counts)`` (or ``counts`` for a range of degrees);
    ``composed_counts``, the counts of itself substituted into;
    ``build(labels)``, its sorted structures; ``compile(n)``, the
    S_n-action on them; and ``check()``, ``check_with_children()``, its
    validation: the problems found, as (code, message) pairs.  A kind
    without a check leaves it None, and ``validate`` skips it.

    ``compile`` is a generator like ``build``: it yields each (child,
    degree) it reads, is sent back that child's generator arrays, and
    returns its own: for each of ``generator_lines(n)``, the indices its
    sorted structures on 1..n go to.
    """

    children: Tuple["SpeciesExpr", ...] = ()
    # composed_counts(hs, gs, start, stop): the counts of self o g at
    # start..stop-1 from self's differential equation, given g's counts gs
    # and the composite's own hs at 0..start-1.  None: the Bell triangle.
    composed_counts = None
    check = None
    check_with_children = None
    # reads(N): the (child, degree) pairs that the counts at degrees 0..N
    # read, when they are not every child at child_degree(N); they may grow
    # once those are counted (Substitute reads g only as far as f's counts
    # make room).
    reads = None

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

    def counts(self, start: int, stop: int, *kids) -> list:
        """Counts at degrees start..stop-1; the children's counts are ready."""
        return [self.count(n, *kids) for n in range(start, stop)]

    def build(self, labels):
        """Generator: yields each (child, labels) read, is sent back that
        child's structures, and returns its own, sorted.  A node without
        children defines ``structures(labels)`` instead."""
        return self.structures(labels)
        yield  # never reached; the yield makes every builder a generator


# Live nodes: (class, *fields) -> a weak reference to the node.  A node's
# entry leaves when the node dies, so the table never needs clearing.
_NODES: dict = {}


class _Ref(weakref.ref):
    """A weak reference to a node that remembers the node's key."""

    __slots__ = ("key",)


def _drop(ref, nodes=_NODES):
    # the node died; a newer node under the same key keeps its entry
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


class _Interned(type):
    """Hash-consing (Filliatre & Conchon, 2006): constructing a node equal
    to a live one returns that node, so equality is identity and so is the
    hash: ``object.__hash__``, computed in C from the node's address, which
    is fixed for the node's life.

    The key (class, *fields) is looked up in a plain dict of weak
    references before anything is built, so a hit allocates nothing.  A
    new node also records its ``children``: the fields that are
    expressions."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            args = bind(cls, args, kwargs)
        key = (cls, *args)
        ref = _NODES.get(key)
        if ref is not None:
            live = ref()
            if live is not None:
                return live
        if len(args) != len(cls._fields):
            bind(cls, args, {})  # raises the TypeError
        node = cls.__new__(cls)
        attrs = node.__dict__
        attrs.update(zip(cls._fields, args))
        attrs["children"] = tuple([v for v in args if isinstance(v, SpeciesExpr)])
        ref = _NODES[key] = _Ref(node, _drop)
        ref.key = key
        return node


class _Node(SpeciesExpr, Record, metaclass=_Interned):
    """A node's fields, repr and immutability are a record's (see
    ``records``); its equality and hash are identity's."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        # copies and unpickled nodes go through the intern table as well
        return type(self), self._values(self)


class Zero(_Node):
    def count(self, n):
        return 0

    def structures(self, labels):
        return ()

    def compile(self, n):
        return _fixed_arrays(n, 0)
        yield


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
            return _fixed_arrays(n, 0)
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

    def check(self):
        return [("NegativeDegree", f"Y({self.k})")] if self.k < 0 else ()


class Exp(_Node):
    """One structure (the label set itself) at every degree."""

    def count(self, n):
        return 1

    def structures(self, labels):
        return (("set", labels),)

    def compile(self, n):
        return _fixed_arrays(n, 1)  # the whole label set is its own image
        yield

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 1, 1)


class ExpPlus(_Node):
    def count(self, n):
        return 1 if n >= 1 else 0

    def structures(self, labels):
        return (("set", labels),) if labels else ()

    def compile(self, n):
        return _fixed_arrays(n, 1 if n else 0)
        yield

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 0, 1)


class Lin(_Node):
    """Linear orders; the regular (free transitive) action at each degree."""

    def counts(self, start, stop):
        return _factorials(start, stop)

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
    def counts(self, start, stop):
        out = _factorials(start, stop)
        if start == 0 and out:
            out[0] = 0  # no nonempty list on the empty set
        return out

    def structures(self, labels):
        return tuple(("lin", p) for p in itertools.permutations(labels)) if labels else ()

    def compile(self, n):
        return (yield Cauchy(X(), Lin()), n)

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 0, 0)


class Cyc(_Node):
    """Oriented cycles; empty at degree 0 by convention."""

    def counts(self, start, stop):
        return _factorials(start, stop, 1)

    def structures(self, labels):
        if not labels:
            return ()
        return tuple(("cyc", labels[:1] + p) for p in itertools.permutations(labels[1:]))

    def compile(self, n):
        # the sorted structures are the cycles (1, t) for the tails t of
        # 2..n in lexicographic order, held as bytes; g's image of a cycle
        # starts at g(first) = 1, so each doubled cycle is cut at ``first``,
        # relabeled and ranked
        if n <= 1:
            return _fixed_arrays(n, n)
        cycles = list(map(b"\x01".__add__, map(bytes, itertools.permutations(range(2, n + 1)))))
        rank = dict(zip(cycles, itertools.count()))
        doubled = list(map(operator.add, cycles, cycles))
        out = []
        for line in generator_lines(n):
            first = line.index(1) + 1
            cut = [d[(i := d.index(first)) : i + n] for d in doubled]
            out.append(tuple(map(rank.__getitem__, map(bytes.translate, cut, _relabelings(line)))))
        return tuple(out)
        yield

    def composed_counts(self, hs, gs, start, stop):
        return _cyc_composed(hs, gs, start, stop)


class Perm(_Node):
    """Permutations of the label set, acted on by conjugation."""

    def counts(self, start, stop):
        return _factorials(start, stop)

    def structures(self, labels):
        return tuple(("perm", tuple(zip(labels, p))) for p in itertools.permutations(labels))

    def compile(self, n):
        # the sorted structures are the one-line permutations p in
        # lexicographic order, held as bytes; g conjugates p to q with
        # q[g(i)] = g(p[i]), so q is p relabeled by g, then read at
        # ``at``, the positions g sends to 0..n-1
        if n <= 1:
            return _fixed_arrays(n, 1)
        perms = list(map(bytes, itertools.permutations(range(1, n + 1))))
        rank = dict(zip(itertools.permutations(range(1, n + 1)), itertools.count()))
        out = []
        for line in generator_lines(n):
            at = operator.itemgetter(*inverse_array([y - 1 for y in line]))
            moved = map(at, map(bytes.translate, perms, _relabelings(line)))
            out.append(tuple(map(rank.__getitem__, moved)))
        return tuple(out)
        yield

    # S o G = E o (C o G) = 1/(1 - G) = L o G
    composed_counts = Lin.composed_counts


class Subsets(_Node):
    def count(self, n):
        return 2 ** n

    def structures(self, labels):
        return tuple(("subset", s) for s in _subsets(labels))

    def compile(self, n):
        # the sorted subsets, held as bytes; a relabeled subset is ranked
        # by its set of labels
        subsets = list(map(bytes, _subsets(tuple(range(1, n + 1)))))
        rank = dict(zip(map(frozenset, subsets), itertools.count()))
        return tuple(
            tuple(map(rank.__getitem__, map(frozenset, map(bytes.translate, subsets, relabel))))
            for relabel in map(_relabelings, generator_lines(n))
        )
        yield

    def composed_counts(self, hs, gs, start, stop):
        return _unit_composed(hs, gs, start, stop, 1, 1, 2)  # P = E * E = exp(2X)


_BYTES = bytes(range(256))  # every byte value, in order


def _relabelings(line):
    """The bytes.translate table of the one-line permutation ``line`` of
    1..n, endlessly: byte v goes to line[v - 1], every other byte to
    itself.  A byte holds labels up to 255; S, C and P, which hold their
    structures as bytes, list (n-1)! or 2^n of them at degree n, so no
    degree they can list comes near."""
    return itertools.repeat(b"\0" + bytes(line) + _BYTES[len(line) + 1 :])


def _factorials(start: int, stop: int, shift: int = 0) -> list:
    """(n - shift)! at degrees n = start..stop-1, by one running product;
    0 at the degrees below ``shift``."""
    out = [0] * max(min(shift, stop) - start, 0)
    first = max(start, shift)
    if first < stop:
        f = math.factorial(first - shift)
        out.append(f)
        for m in range(first - shift + 1, stop - shift):
            f *= m
            out.append(f)
    return out


def _subsets(labels) -> list:
    """Every subset of a sorted label tuple, as a sorted tuple, in sorted order."""
    return sorted(s for r in range(len(labels) + 1) for s in itertools.combinations(labels, r))


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

    def check(self):
        problems = []
        for n, row in enumerate(self.atoms):
            first = len(problems)
            if len(set(row)) != len(row):
                problems.append(("DuplicateAtoms", f"degree {n}"))
            action = self.action[n] if n < len(self.action) else None
            if action is None:
                problems.append(("MissingAction", f"degree {n}"))
                continue
            expected = {p.images for p in all_permutations(n)}
            if set(action) != expected:
                problems.append(("IncompleteAction", f"degree {n}"))
                continue
            ident = tuple(range(1, n + 1))
            if any(action[ident].get(a) != a for a in row):
                problems.append(("IdentityNotFixed", f"degree {n}"))
            for sig, mapping in action.items():
                if sorted(mapping) != sorted(row) or sorted(mapping.values()) != sorted(row):
                    problems.append(("NonBijectiveAction", f"degree {n}, permutation {sig}"))
                    break
            if len(problems) == first:
                problems += _check_homomorphism(action, row, n)
        return problems


def _check_homomorphism(action, row, n) -> list:
    """With the identity fixed, the rows are an action of S_n exactly when
    g.(sigma.a) = (g sigma).a for each generator g, every sigma and atom a."""
    for sig in sorted(action):
        on_sig = action[sig]
        for g in generator_lines(n):
            on_g, on_g_sig = action[g], action[tuple([g[v - 1] for v in sig])]
            if any(on_g_sig[a] != on_g[on_sig[a]] for a in row):
                return [("NotAnAction", f"degree {n}, permutation {sig}")]
    return []


class Sum(_Node):
    f: SpeciesExpr
    g: SpeciesExpr

    def counts(self, start, stop, f, g):
        return list(map(operator.add, f[start:stop], g[start:stop]))

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

    def counts(self, start, stop, f, g):
        return list(map(operator.mul, f[start:stop], g[start:stop]))

    def build(self, labels):
        n = len(labels)
        if not (_card(self.f, n) and _card(self.g, n)):
            return ()
        fs = yield self.f, labels
        gs = yield self.g, labels
        return tuple(("both", (sf, sg)) for sf in fs for sg in gs)

    def compile(self, n):
        if not (_card(self.f, n) and _card(self.g, n)):
            return _fixed_arrays(n, 0)
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
        fa, ga = {}, {}  # both keyed by |U|
        for r in sorted({len(U) for U in layout}):
            fa[r] = yield self.f, r
            ga[r] = yield self.g, n - r
        out = []
        for j, line in enumerate(generator_lines(n)):
            # A generator moves at most one factor of a block: (1 2) the
            # f-factor when U holds 1 and 2, the g-factor when U holds
            # neither, and otherwise only the block, copied as one range;
            # (1 ... n) the f-factor when U holds n, and otherwise the
            # g-factor.  The swap is each child's first array, the cycle
            # its last.
            g, k = ((0,) + line).__getitem__, -j
            arr = []
            for U, (_, rows, cols) in layout.items():
                base = layout[tuple(sorted(map(g, U)))][0]
                if n < 2:
                    moved = None
                elif j == 0:
                    moved = "f" if U[:2] == (1, 2) else "g" if not U or U[0] > 2 else None
                else:
                    moved = "f" if U and U[-1] == n else "g"
                if moved is None:
                    arr += range(base, base + rows * cols)
                elif moved == "f":
                    for x in fa[len(U)][k]:
                        arr += range(base + x * cols, base + x * cols + cols)
                else:
                    on_rest = ga[len(U)][k]
                    for start in range(base, base + rows * cols, cols):
                        arr += [start + y for y in on_rest]
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
    fs, gs = _counts(f, n), _counts(g, n)
    layout, total = {}, 0
    for U in sorted(
        U
        for r in range(n + 1)
        if fs[r] and gs[n - r]
        for U in itertools.combinations(range(1, n + 1), r)
    ):
        rows, cols = fs[len(U)], gs[n - len(U)]
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

    def check_with_children(self):
        try:
            if _card(self.g, 0) != 0:
                return [
                    (
                        "InnerNotPositive",
                        "substitution requires the inner species to be empty at degree 0",
                    )
                ]
        except BudgetExceeded as exc:
            return [("BudgetExceeded", str(exc))]
        return ()

    def _partitions(self, labels):
        """f's and g's counts as far as f o g reads them on ``labels``, and
        the partitions of the labels that carry structures: each as its
        blocks in order of least element, all in sorted order."""
        n = len(labels)
        fs = _counts(self.f, n)
        ks = [k for k in range(1, n + 1) if fs[k]]
        # g is read up to the largest block that a nonzero f_k leaves room for
        gs = _counts(self.g, n - ks[0] + 1) if ks else ()
        parts = sorted(
            blocks
            for blocks in _set_partitions(labels)
            if fs[len(blocks)] and all(map(gs.__getitem__, map(len, blocks)))
        )
        return fs, gs, parts

    def build(self, labels):
        # the partitions, each outer structure and the products of the
        # inner ones come sorted, so their structures do
        _, _, parts = self._partitions(labels)
        outers, inners, out = {}, {}, []
        for blocks in parts:
            k = len(blocks)
            for b in blocks:
                if b not in inners:
                    inners[b] = yield self.g, b
            if k not in outers:
                outers[k] = yield self.f, tuple(range(1, k + 1))
            out += [
                ("part", (blocks, outer, each))
                for outer in outers[k]
                for each in itertools.product(*map(inners.__getitem__, blocks))
            ]
        return tuple(out)

    def compile(self, n):
        # a partition's structures: outer index, then the inner indices in
        # block order, in mixed radix
        fs, gs, parts = self._partitions(tuple(range(1, n + 1)))
        fa, ga = {}, {}
        for k in sorted({len(p) for p in parts}):
            fa[k] = yield self.f, k
        for m in sorted({len(b) for p in parts for b in p}):
            ga[m] = yield self.g, m
        # each partition as its block sizes and, as bytes, the rank of each
        # label's block; its segment starts at offset[ranks]
        shapes, ranks, offset, total = [], [], {}, 0
        for p in parts:
            rank = bytearray(n)
            for i, b in enumerate(p):
                for x in b:
                    rank[x - 1] = i
            shape = tuple(map(len, p))
            shapes.append(shape)
            ranks.append(bytes(rank))
            offset[ranks[-1]] = total
            total += fs[len(p)] * math.prod(map(gs.__getitem__, shape))
        if n < 2:
            return (tuple(range(total)),)
        # translate tables: the block ranks once block h moves to the front
        lead = [_BYTES[1 : h + 1] + b"\0" + _BYTES[h + 1 :] for h in range(n)]
        outer = {}  # block-rank permutation -> its array on the outer structures

        def pattern(j, shape, hit):
            # A generator moves the outer structure by a permutation rho of
            # the block ranks and at most one block's inner one, block
            # ``hit``; the blocks from rank ``still`` on keep their rank and
            # their structure.  The segment's image, less the offset of the
            # image partition's, depends on nothing else.
            k = len(shape)
            if j == 1:  # (1 ... n): the block of n goes first
                still = hit + 1
                new = (shape[hit],) + shape[:hit] + shape[still:]
                rho = tuple(range(2, still + 1)) + (1,) + tuple(range(still + 1, k + 1))
            elif hit == 0:  # (1 2) inside the first block
                still, new, rho = 1, shape, tuple(range(1, k + 1))
            else:  # 1 and 2 lead the first two blocks and trade places
                still = 2
                new = (shape[1], shape[0]) + shape[2:]
                rho = (2, 1) + tuple(range(3, k + 1))
            if rho not in outer:
                outer[rho] = permutation_array(fa[k], rho)
            weights, w = [0] * k, 1  # each new rank's place value
            for t in range(k - 1, -1, -1):
                weights[t] = w
                w *= gs[new[t]]
            digits = [[x * w for x in outer[rho]]]
            for i in range(still):
                if gs[shape[i]] > 1:  # a block with one structure adds 0
                    w = weights[rho[i] - 1]
                    on_b = ga[shape[i]][-j] if i == hit else range(gs[shape[i]])
                    digits.append([x * w for x in on_b])
            tail = weights[still - 1]  # the unmoved blocks span one range
            if tail > 1:
                digits.append(range(tail))
            return product_sums(*digits)

        out = []
        for j in range(len(generator_lines(n))):
            patterns, arr = {}, []
            for shape, r in zip(shapes, ranks):
                # the block hit and the image partition's block ranks
                if j == 1:
                    hit, new = r[-1], (r[-1:] + r[:-1]).translate(lead[r[-1]])
                elif r[1]:
                    hit, new = None, (r[1:2] + r[:1] + r[2:]).translate(lead[1])
                else:
                    hit, new = 0, r
                found = patterns.get((shape, hit))
                if found is None:
                    found = patterns[shape, hit] = pattern(j, shape, hit)
                base = offset[new]
                arr += [base + x for x in found]
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
            return _fixed_arrays(n, 0)
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

    def check(self):
        return [("NegativeCutoff", f"cutoff {self.cutoff}")] if self.cutoff < 0 else ()

    def count(self, n, f):
        return f[n] if n <= self.cutoff else len(self.above)

    def build(self, labels):
        if len(labels) > self.cutoff:
            return self.above
        return (yield self.f, labels)

    def compile(self, n):
        if n > self.cutoff:
            return _fixed_arrays(n, len(self.above))
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
    remembered for later calls.  Each visit carries only a link to its
    parent's and its child index; a diagnostic's path is spelled from the
    links when one is found.
    """
    diags: list = []
    found = 0  # len(diags)
    stack = [(e, None, None)]  # (node, its link: (parent's link, child index), mark)
    before = len(_VALIDATED)
    try:
        while stack:
            node, link, mark = stack.pop()
            if mark is None:
                if node in _VALIDATED:
                    continue
                first = found
                if node.check is not None:
                    found += _place(node.check(), link, diags)
                # mark holds the diagnostic counts from before the node's own
                # checks and from before its children
                mark = (first, found)
                kids = node.children
                if kids:
                    stack.append((node, link, mark))
                    for i in range(len(kids) - 1, -1, -1):
                        stack.append((kids[i], (link, i), None))
                    continue
            # every child is done
            first, children_first = mark
            if found == children_first and node.check_with_children is not None:
                found += _place(node.check_with_children(), link, diags)
            if found == first:
                _VALIDATED.add(node)
    finally:
        caches.grow(len(_VALIDATED) - before)
    return tuple(diags)


def _place(problems, link, diags: list) -> int:
    """Append each (code, message) found at ``link`` as a Diagnostic at
    its path, "root" then the child index of each step down; return how
    many."""
    if not problems:
        return 0
    steps = []
    while link is not None:
        link, i = link
        steps.append(str(i))
    path = ".".join(["root", *reversed(steps)])
    diags += [Diagnostic(code, path, message) for code, message in problems]
    return len(problems)


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


def nonzero_entries(a) -> list:
    """The pairs (k, a_k) with a_k != 0, in order of k."""
    return list(itertools.compress(enumerate(a), a))


def binomial_convolution(a, b, start: int, stop: int, support=None) -> list:
    """Entries start..stop-1 of c_n = sum_k C(n, k) a_k b_(n-k).

    The counting shadow of the Cauchy product.  ``a`` and ``b`` are plain
    sequences with at least ``stop`` entries.  Only the nonzero entries
    (k, a_k) of ``a`` are summed: ``support`` gives them, as
    ``nonzero_entries`` lists them, to a caller that convolves one ``a``
    many times (entries at k >= stop are ignored), and otherwise they are
    read from ``a`` once per call.

    When the range is at least as wide as that set of entries, each entry
    adds one column C(n, k) a_k b_(n-k) over the whole range in C-level
    passes: a slice of ``b`` for k = 0, ``b`` times n for k = 1 and times
    ``math.comb`` mapped over the range otherwise.  A narrower range, such
    as a count extended by one degree, sums each degree in turn over the
    entries, skipping zero entries of ``b``.
    """
    if support is None:
        support = nonzero_entries(a[:stop])
    else:
        support = support[: bisect.bisect_left(support, (stop,))]
    if stop - start < len(support):
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
    out = []
    for k, v in support:
        lo = max(start, k)
        column = b[lo - k : stop - k]
        if k == 1:
            column = map(operator.mul, range(lo, stop), column)
        elif k:
            column = map(operator.mul, map(math.comb, range(lo, stop), itertools.repeat(k)), column)
        if v != 1:
            column = map(operator.mul, column, itertools.repeat(v))
        if out:
            out[lo - start :] = map(operator.add, out[lo - start :], column)
        else:  # the first column is the sum so far
            out = [0] * (lo - start)
            out += column
    return out or [0] * (stop - start)


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


# endless fill-ins for zip and map: a child pushed not ready, a child not read
_NOT_READY, _NO_COUNTS = itertools.repeat(False), itertools.repeat(())


def _counts(e, N: int) -> list:
    """The cached counts of e, extended through degree N.

    Nodes are evaluated in an explicit post-order, so nesting depth is not
    bounded by the recursion limit, and each node is counted once per
    degree.  Children are evaluated only through the degrees that e reads
    at 0..N, so a Table raises BudgetExceeded exactly when one of those
    lies beyond it.  A node with children and without ``reads`` is visited
    twice: once to push its children, once to count; one with ``reads`` is
    asked again until nothing it reads is missing.
    """
    table = _COUNT_CACHE
    seq = table.get(e)
    if seq is not None and len(seq) > N:
        return seq
    grown = 0
    stack = [(e, N, False)]  # (node, degree, its children are counted)
    try:
        while stack:
            node, n, ready = stack.pop()
            seq = table.get(node)
            if seq is None:
                seq = table[node] = []
            elif len(seq) > n:
                continue
            if node.reads is not None:
                missing = [(c, m, False) for c, m in node.reads(n) if len(table.get(c, ())) <= m]
                if missing:
                    stack.append((node, n, True))
                    stack += missing
                    continue
            elif not ready and node.children:
                # every child, counted or not: a counted one is popped at once
                stack.append((node, n, True))
                stack += zip(node.children, itertools.repeat(node.child_degree(n)), _NOT_READY)
                continue
            # a child that is not read passes no counts
            new = node.counts(len(seq), n + 1, *map(table.get, node.children, _NO_COUNTS))
            seq += new
            grown += len(new)
    finally:
        caches.grow(grown)
    return table[e]


def _card(e, n: int) -> int:
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    return _counts(e, n)[n]


def cardinality(e: SpeciesExpr, n: int) -> int:
    """|e[n]|, computed by exact recurrences (no enumeration)."""
    caches.check_cap()
    require_valid(e)
    return _card(e, n)


def counts_upto(e: SpeciesExpr, N: int) -> Tuple[int, ...]:
    """(|e[0]|, ..., |e[N]|) by the exact recurrences, validating e once."""
    caches.check_cap()
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
    """Every set partition of a sorted label tuple, as sorted blocks in
    order of least element: the least label joins each block of a
    partition of the rest, which then goes first, or goes first alone."""
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield ((first, *part[i]),) + part[:i] + part[i + 1 :]
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
    caches.check_cap()
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
    a relabeling keeps, so each image is index arithmetic.  The leaves
    E, E+, C, S and P compile in closed form on the one-line tuples their
    structures encode, and L, L+ and y[k] compile from Cauchy(X, L).
    """
    caches.check_cap()
    return _run(_COMPILE_CACHE, "compile", (e, n))


def _fixed_arrays(n: int, size: int):
    """The generator arrays of ``size`` points that every generator fixes."""
    return (tuple(range(size)),) * len(generator_lines(n))


# (node, n) -> its FiniteAction, one slot: its arrays and points are the
# two tables above
_DEGREE_CACHE = caches.register("actions", {})


def enumerate_degree(e: SpeciesExpr, n: int, cap: int | None = None) -> FiniteAction:
    """e on {1,...,n}: one cached S_n-action per (e, n), whose size is the
    count, whose generator arrays compile from the children's arrays and
    whose points are the structures.  They are enumerated only when a
    point is read; the compile and the enumeration are each checked
    against the count."""
    caches.check_cap()
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
