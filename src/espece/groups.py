"""Finite symmetric-group machinery.

Permutations of {1,...,n}, finite left S_n-actions given by one
point-index array per generator of S_n, orbits, stabilizers, fixed
points, and the counting and enumeration of equivariant maps between
actions.  Everything is exact and deterministic: points are kept in
their canonical sort order and every "least representative" tie-break
uses that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

from .errors import (
    DegreeMismatch,
    DegreeTooLarge,
    PointNotInAction,
    TooManyMaps,
)

# 8! = 40320 permutations; anything past this is no longer desk scale.
MAX_DEGREE = 8

# degree -> S_n as a generator walk (see _symmetric_table); at most
# MAX_DEGREE + 1 entries, since each is built from all_permutations.
_SYMMETRIC_TABLES: dict = {}
# degree -> the cycle type of each element of that table, in table order;
# filled on first use, so each cycle type is computed once per process.
_CYCLE_TYPES: dict = {}


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1,...,n} in one-line notation."""

    images: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        # Labels outside 1..n (the adjoined points of derivative contexts
        # are 0, -1, ...) are fixed by every permutation.
        if 1 <= i <= len(self.images):
            return self.images[i - 1]
        return i

    @cached_property
    def mapping(self) -> dict:
        """The images as a dict on 1..n, for relabeling."""
        return dict(enumerate(self.images, start=1))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if other.degree != self.degree:
            raise DegreeMismatch(f"{self.degree} vs {other.degree}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def cycle_type(self) -> Tuple[int, ...]:
        images = self.images
        seen = set()
        lens = []
        for start in range(1, len(images) + 1):
            if start in seen:
                continue
            k, size = start, 0
            while k not in seen:
                seen.add(k)
                k = images[k - 1]
                size += 1
            lens.append(size)
        return tuple(sorted(lens, reverse=True))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int, max_degree: int | None = None) -> Tuple[Permutation, ...]:
    """All of S_n: identity first, then lexicographic one-line order."""
    cap = MAX_DEGREE if max_degree is None else max_degree
    if n > cap:
        raise DegreeTooLarge(f"S_{n} exceeds the configured cap {cap}")
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def _generator_lines(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The one-line images of ``generators(n)``."""
    if n <= 1:
        return (tuple(range(1, n + 1)),)
    swap = (2, 1) + tuple(range(3, n + 1))
    if n == 2:
        return (swap,)
    return (swap, tuple(range(2, n + 1)) + (1,))


def generators(n: int) -> Tuple[Permutation, ...]:
    """The standard generating set {(1 2), (1 2 ... n)} of S_n."""
    return tuple(Permutation(g) for g in _generator_lines(n))


def permutation_array(gens, images: Tuple[int, ...]) -> Tuple[int, ...]:
    """The point indices the permutation ``images`` (one-line, of 1..n)
    sends the points to, given the arrays ``gens`` of ``generators(n)``.

    A generator is read off; any other permutation is a word in adjacent
    transpositions, (i i+1) = c^(i-1) (1 2) c^-(i-1) for the cycle
    c = (1 2 ... n), composed array by array.  No table of S_n is built,
    so every degree works.
    """
    lines = _generator_lines(len(images))
    if images in lines:
        return gens[lines.index(images)]
    s = gens[0]
    powers = [tuple(range(len(s)))]  # powers[m] is c^m
    transpositions = {1: s}
    out = powers[0]
    for i in reversed(_adjacent_swaps(images)):
        t = transpositions.get(i)
        if t is None:
            while len(powers) < i:
                powers.append(tuple([gens[1][y] for y in powers[-1]]))
            p = powers[i - 1]
            t = transpositions[i] = tuple([p[s[y]] for y in inverse_array(p)])
        out = tuple([out[y] for y in t])
    return out


def _adjacent_swaps(images: Tuple[int, ...]) -> list:
    """The word of ``images`` in adjacent transpositions: i for (i i+1),
    listed so that the permutation is t_last ... t_first (the first one
    acts first)."""
    # bubble-sort the one-line images: swapping positions i, i+1 of pi
    # gives pi (i i+1)
    line, swaps = list(images), []
    for end in range(len(line) - 1, 0, -1):
        for i in range(end):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                swaps.append(i + 1)
    return swaps


def inverse_array(a) -> Tuple[int, ...]:
    """The inverse of a permutation of 0..len(a)-1 given as an array."""
    inv = [0] * len(a)
    for i, y in enumerate(a):
        inv[y] = i
    return tuple(inv)


def restriction(sigma: Permutation, U) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """sigma's image of the label set U, sorted, and the permutation of the
    ranks 1..|U| that it induces.  For a generator of S_n that permutation
    is the identity or the same generator of S_|U|."""
    moved = [sigma(u) for u in U]
    image = tuple(sorted(moved))
    rank = {y: i for i, y in enumerate(image, start=1)}
    return image, tuple([rank[y] for y in moved])


def product_sums(*digits) -> list:
    """Every sum of one entry from each list, the first list slowest: the
    indices of a row-major product, each factor moved by its own array."""
    out = digits[0]
    for d in digits[1:]:
        out = [x + y for x in out for y in d]
    return out


def shifted_arrays(arrays, m: int):
    """The arrays of ``generators(m - 1)`` moved onto labels 2..m of a
    degree-m action with generator arrays ``arrays``: (2 3 ... m) is (1 2)
    after (1 ... m), and (2 3) is (1 ... m) (1 2) (1 ... m)^-1."""
    if m <= 2:
        return (tuple(range(len(arrays[0]))),)
    s, c = arrays
    cycle = tuple([s[y] for y in c])
    if m == 3:
        return (cycle,)
    return (tuple([c[s[y]] for y in inverse_array(c)]), cycle)


def induced_arrays(n: int, inner):
    """Generator arrays of the S_n-action on pairs (a, x), ordered by the
    label a in 1..n and then by x, where ``inner`` holds the generator
    arrays of an S_n-1 action, read on the labels other than a."""
    m = len(inner[0])
    labels = range(1, n + 1)
    out = []
    for sigma in generators(n):
        arr = []
        for a in labels:
            _, on_rest = restriction(sigma, [x for x in labels if x != a])
            base = (sigma(a) - 1) * m
            arr += [base + x for x in permutation_array(inner, on_rest)]
        out.append(tuple(arr))
    return tuple(out)


def _symmetric_table(n: int):
    """S_n listed so that each element is one generator after an earlier one.

    Returns ``(perms, steps, position)``: ``perms[0]`` is the identity,
    ``perms[t]`` is ``generators(n)[j] * perms[parent]`` for ``(parent, j) =
    steps[t - 1]``, and ``position`` maps one-line images to ``t``.  For a
    left action, sigma.x = g.(tau.x), so walking the steps maps a point
    under every element with one array lookup each.  Built from
    ``all_permutations``, so it obeys the same degree cap.
    """
    table = _SYMMETRIC_TABLES.get(n)
    if table is not None:
        return table
    by_images = {p.images: p for p in all_permutations(n)}
    gens = [g.images for g in generators(n)]
    order = [Permutation.identity(n).images]
    position = {order[0]: 0}
    steps = []
    for parent, tau in enumerate(order):  # a queue: order grows while it is walked
        for j, g in enumerate(gens):
            sigma = tuple(g[v - 1] for v in tau)
            if sigma not in position:
                position[sigma] = len(order)
                order.append(sigma)
                steps.append((parent, j))
    table = (tuple(by_images[s] for s in order), tuple(steps), position)
    _SYMMETRIC_TABLES[n] = table
    return table


def _cycle_types(n: int):
    """The cycle type of each element of ``_symmetric_table(n)``, by position."""
    types = _CYCLE_TYPES.get(n)
    if types is None:
        types = _CYCLE_TYPES[n] = tuple(p.cycle_type() for p in _symmetric_table(n)[0])
    return types


class SubgroupElements:
    """A subgroup of S_n, listed by its elements.

    A stabilizer is made from its ``positions`` in ``_symmetric_table``,
    on which the group algorithms work; its ``elements``, a frozenset of
    Permutations, are built from them only when read.  A subgroup made
    from its elements reads its positions off the table the same way.
    """

    def __init__(self, degree: int, elements=None, positions=None):
        self.degree = degree
        if positions is None:
            self.elements = frozenset(elements)
            self._order = len(self.elements)
        else:
            self.positions = frozenset(positions)
            self._order = len(self.positions)

    @cached_property
    def elements(self) -> frozenset:
        perms = _symmetric_table(self.degree)[0]
        return frozenset(perms[t] for t in self.positions)

    @cached_property
    def positions(self) -> frozenset:
        position = _symmetric_table(self.degree)[2]
        return frozenset(position[p.images] for p in self.elements)

    def __len__(self) -> int:
        return self._order

    def __eq__(self, other):
        if not isinstance(other, SubgroupElements):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"SubgroupElements(degree={self.degree}, elements={self.elements!r})"

    def is_subgroup(self) -> bool:
        els = self.elements
        if Permutation.identity(self.degree) not in els:
            return False
        return all(a * b in els and a.inverse() in els for a in els for b in els)

    @cached_property
    def cycle_type_multiset(self) -> Tuple[Tuple[int, ...], ...]:
        """Multiset of member cycle types; a conjugacy invariant."""
        types = _cycle_types(self.degree)
        return tuple(sorted(types[t] for t in self.positions))


class FiniteAction:
    """A left S_n-action on ``size`` points, given by index arrays.

    ``arrays`` returns, for each of ``generators(degree)``, the point
    indices it sends the points to; ``points`` returns the points, distinct
    and in sorted order (not checked).  Each is called once, the first
    time it is needed: the group algorithms read ``size`` and the arrays
    and work on integers, so an action they only count or compare never
    lists its points.
    """

    def __init__(self, degree: int, size: int, arrays: Callable, points: Callable):
        self.degree = degree
        self.size = size
        self._arrays = arrays
        self._list_points = points

    @cached_property
    def points(self) -> Tuple:
        return tuple(self._list_points())

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.points)}

    def __contains__(self, x) -> bool:
        return x in self.index

    @cached_property
    def _generator_images(self) -> Tuple[Tuple[int, ...], ...]:
        return self._arrays()

    def generator_images(self) -> Tuple[Tuple[int, ...], ...]:
        """For each of ``generators(degree)``, the point indices it maps to."""
        return self._generator_images

    def act(self, sigma: Permutation, x):
        """sigma.x: x's index followed through sigma's word in the generators."""
        n = self.degree
        if sigma.degree != n:
            raise DegreeMismatch(f"{sigma.degree} vs {n}")
        i = self.index.get(x)
        if i is None:
            raise PointNotInAction(repr(x))
        gens = self.generator_images()
        for t in _adjacent_swaps(sigma.images):
            # (t t+1) = c^(t-1) (1 2) c^-(t-1), and c^-(t-1) = c^(n-t+1)
            for _ in range((n - t + 1) % n):
                i = gens[1][i]
            i = gens[0][i]
            for _ in range(t - 1):
                i = gens[1][i]
        return self.points[i]


@dataclass(frozen=True)
class Orbit:
    representative: object
    points: Tuple


def orbits(a: FiniteAction) -> Tuple[Orbit, ...]:
    """Partition of the points into orbits, least point first in each."""
    out = []
    for orbit in _orbit_indices(a):
        pts = tuple(a.points[j] for j in orbit)
        out.append(Orbit(pts[0], pts))
    return tuple(out)


def _orbit_indices(a: FiniteAction):
    """The orbits as sorted lists of point indices, by least point."""
    gens = a.generator_images()
    seen = [False] * a.size
    out = []
    for i in range(a.size):  # sorted, so each new orbit's seed is its least point
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        frontier = [i]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = g[y]
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
                    frontier.append(z)
        orbit.sort()
        out.append(orbit)
    return out


def stabilizer(a: FiniteAction, x) -> SubgroupElements:
    """All permutations fixing x."""
    if x not in a:
        raise PointNotInAction(repr(x))
    return SubgroupElements(a.degree, positions=_stabilizer_at(a, a.index[x]))


def _stabilizer_at(a: FiniteAction, i: int):
    """The S_n-table positions of the permutations fixing the i-th point,
    by one walk of the table."""
    steps = _symmetric_table(a.degree)[1]
    gens = a.generator_images()
    images = [i]  # images[t] = perms[t].x, as a point index
    for parent, j in steps:
        images.append(gens[j][images[parent]])
    return [t for t, y in enumerate(images) if y == i]


def element_images(a: FiniteAction):
    """(sigma, the point indices sigma sends the points to) for all of S_n."""
    perms, steps, _ = _symmetric_table(a.degree)
    gens = a.generator_images()
    arrays = [tuple(range(a.size))]
    for parent, j in steps:
        g = gens[j]
        arrays.append(tuple([g[y] for y in arrays[parent]]))
    return tuple(zip(perms, arrays))


def fixed_points(H: SubgroupElements, a: FiniteAction) -> Tuple:
    """Points of ``a`` fixed by every element of H."""
    if H.degree != a.degree:
        raise DegreeMismatch(f"{H.degree} vs {a.degree}")
    return tuple(a.points[i] for i in _fixed_indices(H.positions, a))


def _fixed_indices(positions, a: FiniteAction):
    """Indices of the points of ``a`` fixed by the S_n-table elements at
    ``positions``, each element read as its word in the generators (its
    path in the table)."""
    moving = [t for t in positions if t]
    if not moving:  # the identity fixes every point: leave the action uncompiled
        return range(a.size)
    steps = _symmetric_table(a.degree)[1]
    gens = a.generator_images()
    keep = list(range(a.size))
    for t in moving:
        word = []
        while t:  # back to the identity: the last generator comes first
            t, j = steps[t - 1]
            word.append(gens[j])
        images = keep
        for g in reversed(word):
            images = [g[y] for y in images]
        keep = [i for i, y in zip(keep, images) if i == y]
    return keep


def count_equivariant_maps(src: FiniteAction, tgt: FiniteAction) -> int:
    """Number of equivariant maps src -> tgt by orbit-stabilizer counting.

    A map is freely determined by sending each orbit representative to a
    point fixed by its stabilizer; the count is the product of the fixed
    point set sizes.
    """
    if src.degree != tgt.degree:
        raise DegreeMismatch(f"{src.degree} vs {tgt.degree}")
    total = 1
    for orbit in _orbit_indices(src):
        total *= len(_fixed_indices(_stabilizer_at(src, orbit[0]), tgt))
        if total == 0:
            return 0
    return total


def _transversal(a: FiniteAction, rep):
    """rep's orbit in discovery order, as (point, parent, generator) indices.

    Each point is generators(n)[generator] applied to its parent, so an
    equivariant map fixed at rep extends along the same steps.
    """
    gens = a.generator_images()
    start = a.index[rep]
    seen = {start}
    steps = []
    frontier = [start]
    while frontier:
        y = frontier.pop()
        for j, g in enumerate(gens):
            z = g[y]
            if z not in seen:
                seen.add(z)
                steps.append((z, y, j))
                frontier.append(z)
    return start, steps


def enumerate_equivariant_maps(src: FiniteAction, tgt: FiniteAction, limit: int):
    """Materialize every equivariant map src -> tgt as a dict.

    Raises TooManyMaps when the exact count exceeds ``limit``.
    """
    count = count_equivariant_maps(src, tgt)
    if count > limit:
        raise TooManyMaps(f"{count} equivariant maps exceed limit {limit}")
    orbs = orbits(src)
    reps = [o.representative for o in orbs]
    choices = [fixed_points(stabilizer(src, r), tgt) for r in reps]
    transversals = [_transversal(src, r) for r in reps]
    tgt_gens = tgt.generator_images()
    maps = []
    for picked in itertools.product(*choices):
        f = {}
        for (start, steps), target in zip(transversals, picked):
            image = {start: tgt.index[target]}
            for z, y, j in steps:
                image[z] = tgt_gens[j][image[y]]
            for z, t in image.items():
                f[src.points[z]] = tgt.points[t]
        maps.append(f)
    assert len(maps) == count
    return tuple(maps)


def subgroups_conjugate(H: SubgroupElements, K: SubgroupElements) -> bool:
    if H.degree != K.degree:
        raise DegreeMismatch(f"{H.degree} vs {K.degree}")
    if len(H) != len(K):
        return False
    if H.positions == K.positions:
        return True
    if H.cycle_type_multiset != K.cycle_type_multiset:
        return False
    n = H.degree
    perms = _symmetric_table(n)[0]
    kset = {perms[t].images for t in K.positions}
    # one-line images padded at index 0, so 1-based labels index directly;
    # position 0 is the identity
    hs = [(0,) + perms[t].images for t in H.positions if t]
    inv = [0] * (n + 1)
    for sigma in perms:
        s = (0,) + sigma.images
        for i in range(1, n + 1):
            inv[s[i]] = i
        labels = inv[1:]  # sigma^-1 of 1..n
        # (sigma h sigma^-1)(i) = sigma(h(sigma^-1(i)))
        if all(tuple([s[h[j]] for j in labels]) in kset for h in hs):
            return True
    return False


def _orbit_stabilizers(a: FiniteAction):
    """(size, stabilizer of the least point) for each orbit."""
    return [
        (len(o), SubgroupElements(a.degree, positions=_stabilizer_at(a, o[0])))
        for o in _orbit_indices(a)
    ]


def action_signature(a: FiniteAction):
    """Per-orbit (size, stabilizer order, stabilizer cycle types), sorted.

    Equal signatures are necessary (not sufficient) for isomorphism; the
    signature is also what iso failure reports print.
    """
    sig = []
    for size, stab in _orbit_stabilizers(a):
        sig.append((size, len(stab), stab.cycle_type_multiset))
    return tuple(sorted(sig))


def actions_isomorphic(a: FiniteAction, b: FiniteAction) -> bool:
    """Classify by the multiset of conjugacy classes of orbit stabilizers."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"{a.degree} vs {b.degree}")
    if a.size != b.size:
        return False
    sa = _orbit_stabilizers(a)
    sb = _orbit_stabilizers(b)
    if len(sa) != len(sb):
        return False

    def bucket(items):
        buckets = {}
        for size, stab in items:
            key = (size, len(stab), stab.cycle_type_multiset)
            buckets.setdefault(key, []).append(stab)
        return buckets

    ba, bb = bucket(sa), bucket(sb)
    if set(ba) != set(bb):
        return False
    for key, stabs_a in ba.items():
        stabs_b = list(bb[key])
        if len(stabs_a) != len(stabs_b):
            return False
        # match each stabilizer of a with a conjugate one of b
        for H in stabs_a:
            for i, K in enumerate(stabs_b):
                if subgroups_conjugate(H, K):
                    del stabs_b[i]
                    break
            else:
                return False
    return True
