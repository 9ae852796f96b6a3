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
import math
from collections import Counter
from functools import cached_property
from typing import Callable, Tuple

from . import caches
from .errors import (
    DegreeMismatch,
    DegreeTooLarge,
    PointNotInAction,
    TooManyMaps,
)
from .records import Record

# 8! = 40320 permutations; anything past this is no longer desk scale.
MAX_DEGREE = 8


def _table_slots(table) -> int:
    """Slots of an S_n table: its elements, steps and positions, and the
    parents its runs list."""
    perms, steps, position, runs = table
    return len(perms) + len(steps) + len(position) + sum(len(parents) for _, parents in runs)


# degree -> S_n as a generator walk (see _symmetric_table); at most
# MAX_DEGREE + 1 entries, since each is built from all_permutations.
_SYMMETRIC_TABLES = caches.register("S_n tables", {}, _table_slots)
# degree -> the cycle type of each element of that table, in table order;
# filled on first use, so each cycle type is computed once until the memo
# tables are cleared.
_CYCLE_TYPES = caches.register("cycle types", {}, len)


class Permutation(Record):
    """A permutation of {1,...,n} in one-line notation."""

    images: Tuple[int, ...]

    def __init__(self, images):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        self.__dict__["images"] = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        # Labels outside 1..n (the adjoined points of derivative contexts
        # are 0, -1, ...) are fixed by every permutation.
        if 1 <= i <= len(self.images):
            return self.images[i - 1]
        return i

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


def symmetric_order(n: int) -> int:
    """|S_n| = n!, refused above the cap like every S_n computation."""
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"S_{n} exceeds the configured cap {MAX_DEGREE}")
    return math.factorial(n)


def all_permutations(n: int) -> Tuple[Permutation, ...]:
    """All of S_n: identity first, then lexicographic one-line order."""
    symmetric_order(n)  # the cap
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def generator_lines(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The one-line images of ``generators(n)``."""
    if n <= 1:
        return (tuple(range(1, n + 1)),)
    swap = (2, 1) + tuple(range(3, n + 1))
    if n == 2:
        return (swap,)
    return (swap, tuple(range(2, n + 1)) + (1,))


def generators(n: int) -> Tuple[Permutation, ...]:
    """The standard generating set {(1 2), (1 2 ... n)} of S_n."""
    return tuple(Permutation(g) for g in generator_lines(n))


def permutation_array(gens, images: Tuple[int, ...]) -> Tuple[int, ...]:
    """The point indices the permutation ``images`` (one-line, of 1..n)
    sends the points to, given the arrays ``gens`` of ``generators(n)``.

    A generator is read off; any other permutation is a word in adjacent
    transpositions, (i i+1) = c^(i-1) (1 2) c^-(i-1) for the cycle
    c = (1 2 ... n), composed array by array.  No table of S_n is built,
    so every degree works.
    """
    lines = generator_lines(len(images))
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


def restricted(arrays, n: int, j: int, U) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The restriction of ``generators(n)[j]`` to the sorted label tuple U:
    U's image, sorted, and the array of the permutation it induces on U's
    ranks 1..|U|, read off ``arrays``, the generator arrays of an
    S_|U|-action.

    The swap (1 2) induces the swap when U holds 1 and 2; the cycle
    (1 2 ... n) induces the cycle of S_|U| (the swap when |U| = 2) when U
    holds n.  Any other restriction keeps the rank order: the identity.
    """
    if n < 2:  # the one generator is the identity
        image = U
    elif j == 0:
        if U[:2] == (1, 2):
            return U, arrays[0]
        image = tuple([3 - u if u <= 2 else u for u in U])
    elif U and U[-1] == n:
        return (1,) + tuple([u + 1 for u in U[:-1]]), arrays[-1]
    else:
        image = tuple([u + 1 for u in U])
    return image, tuple(range(len(arrays[0])))


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
    for j, line in enumerate(generator_lines(n)):
        arr = []
        for a in labels:
            _, on_rest = restricted(inner, n, j, tuple([x for x in labels if x != a]))
            base = (line[a - 1] - 1) * m
            arr += [base + x for x in on_rest]
        out.append(tuple(arr))
    return tuple(out)


def _symmetric_table(n: int):
    """S_n listed so that each element is one generator after an earlier one.

    Returns ``(perms, steps, position, runs)``: ``perms[0]`` is the
    identity, ``perms[t]`` is ``generators(n)[j] * perms[parent]`` for
    ``(parent, j) = steps[t - 1]``, and ``position`` maps one-line images
    to ``t``.  The elements come in runs, one breadth-first level and one
    generator at a time: each run ``(j, parents)`` lists, in position
    order, ``generators(n)[j]`` after each of ``perms[parents]``, all of
    them earlier.  For a left action, sigma.x = g.(tau.x), so a walk maps a
    point under every element with one array lookup each, one C-level
    ``map`` per run.  Built from ``all_permutations``, so it obeys the same
    degree cap.
    """
    table = _SYMMETRIC_TABLES.get(n)
    if table is not None:
        return table
    by_images = {p.images: p for p in all_permutations(n)}
    order = [Permutation.identity(n).images]
    position = {order[0]: 0}
    steps, runs, level = [], [], [0]
    while level:
        start = len(order)
        for j, g in enumerate(generator_lines(n)):
            parents = []
            for parent in level:
                sigma = tuple([g[v - 1] for v in order[parent]])
                if sigma not in position:
                    position[sigma] = len(order)
                    order.append(sigma)
                    steps.append((parent, j))
                    parents.append(parent)
            if parents:
                runs.append((j, tuple(parents)))
        level = range(start, len(order))
    table = (tuple(by_images[s] for s in order), tuple(steps), position, tuple(runs))
    _SYMMETRIC_TABLES[n] = table
    caches.add(_SYMMETRIC_TABLES, table)
    return table


def _cycle_types(n: int):
    """The cycle type of each element of ``_symmetric_table(n)``, by position."""
    types = _CYCLE_TYPES.get(n)
    if types is None:
        types = _CYCLE_TYPES[n] = tuple(p.cycle_type() for p in _symmetric_table(n)[0])
        caches.add(_CYCLE_TYPES, types)
    return types


class SubgroupElements:
    """A subgroup of S_n, held as the positions of its elements in
    ``_symmetric_table``, on which the group algorithms work.

    Made from its elements, it reads their positions off the table, so
    above ``MAX_DEGREE`` it raises DegreeTooLarge like every other S_n
    operation; its ``elements``, a frozenset of Permutations, are built
    from the positions only when read.
    """

    def __init__(self, degree: int, elements=None, positions=None):
        self.degree = degree
        if positions is None:
            position = _symmetric_table(degree)[2]
            positions = [position[p.images] for p in elements]
        self.positions = frozenset(positions)

    @cached_property
    def elements(self) -> frozenset:
        perms = _symmetric_table(self.degree)[0]
        return frozenset(perms[t] for t in self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other):
        if not isinstance(other, SubgroupElements):
            return NotImplemented
        return self.degree == other.degree and self.positions == other.positions

    def __hash__(self):
        return hash((self.degree, self.positions))

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


class Orbit(Record):
    representative: object
    points: Tuple


def orbits(a: FiniteAction) -> Tuple[Orbit, ...]:
    """Partition of the points into orbits, least point first in each."""
    out = []
    for orbit in _orbit_trees(a)[0]:
        pts = tuple(a.points[j] for j in sorted(orbit))
        out.append(Orbit(pts[0], pts))
    return tuple(out)


def _orbit_trees(a: FiniteAction, via=None):
    """One breadth-first walk per orbit, from its least point.

    Returns ``(orbits, parent)``: each orbit lists its point indices in
    walk order, its least point (the root) first, and each other point z of
    it is reached from ``parent[z]``, a point listed before z.  Given a list
    ``via`` of ``a.size`` slots, the walk also records that z is
    ``generators(n)[via[z]]`` applied to ``parent[z]``.  A map fixed at the
    root extends along these steps; only ``enumerate_equivariant_maps``
    reads them, so no other walk keeps ``via``.
    """
    gens = tuple(enumerate(a.generator_images()))
    parent = [-1] * a.size
    orbits = []
    for i in range(a.size):  # sorted, so each new orbit's root is its least point
        if parent[i] >= 0:
            continue
        parent[i] = i
        orbit = [i]
        for y in orbit:  # a queue: the orbit grows while it is walked
            for j, g in gens:
                z = g[y]
                if parent[z] < 0:
                    parent[z] = y
                    orbit.append(z)
                    if via is not None:
                        via[z] = j
        orbits.append(orbit)
    return orbits, parent


def stabilizer(a: FiniteAction, x) -> SubgroupElements:
    """All permutations fixing x."""
    if x not in a:
        raise PointNotInAction(repr(x))
    return SubgroupElements(a.degree, positions=_stabilizer_at(a, a.index[x]))


def _stabilizer_at(a: FiniteAction, i: int):
    """The S_n-table positions of the permutations fixing the i-th point,
    by one walk of the table: images[t] is the index of perms[t] applied
    to the point, one ``map`` per run."""
    gens = a.generator_images()
    images = [i]
    for j, parents in _symmetric_table(a.degree)[3]:
        images += map(gens[j].__getitem__, map(images.__getitem__, parents))
    return list(itertools.compress(range(len(images)), map(i.__eq__, images)))


def _root_stabilizers(a: FiniteAction, orbits):
    """The S_n-table positions of the stabilizer of each orbit's least
    point, in turn.  Its order is n!/|O|, so a one-point orbit's is all of
    S_n and a free orbit's the identity alone; only the other roots walk
    the table.  The cap on S_n holds from the first orbit on."""
    order = symmetric_order(a.degree)
    for orbit in orbits:
        if len(orbit) == 1:
            yield range(order)
        elif len(orbit) == order:
            yield (0,)
        else:
            yield _stabilizer_at(a, orbit[0])


def element_images(a: FiniteAction):
    """(sigma, the point indices sigma sends the points to) for all of S_n."""
    perms, _, _, runs = _symmetric_table(a.degree)
    gens = a.generator_images()
    arrays = [tuple(range(a.size))]
    for j, parents in runs:
        g = gens[j].__getitem__
        arrays += [tuple(map(g, arrays[p])) for p in parents]
    return tuple(zip(perms, arrays))


def fixed_points(H: SubgroupElements, a: FiniteAction) -> Tuple:
    """Points of ``a`` fixed by every element of H."""
    if H.degree != a.degree:
        raise DegreeMismatch(f"{H.degree} vs {a.degree}")
    return tuple(a.points[i] for i in _fixed_indices(H.positions, a))


def _fixed_indices(positions, a: FiniteAction, keep=None):
    """Indices of the points of ``a`` fixed by the S_n-table elements at
    ``positions``, each element read as its word in the generators (its
    path in the table); only the sorted indices ``keep`` are tried, when
    given."""
    moving = [t for t in positions if t]
    keep = range(a.size) if keep is None else keep
    if not moving:  # the identity fixes every point: leave the action uncompiled
        return keep
    steps = _symmetric_table(a.degree)[1]
    gens = a.generator_images()
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


def _root_images(src: FiniteAction, tgt: FiniteAction, orbits):
    """For each orbit of src (``_orbit_trees``), the indices of the tgt
    points fixed by the stabilizer of its root: the images an equivariant
    map may give the root.  Stops after the first orbit with none, since
    then there is no map.

    A root's image has a stabilizer that holds the root's, so it lies in a
    tgt orbit whose size divides |O|: only those points are tried.  A
    one-point orbit's images are tgt's one-point orbits, and a free
    orbit's are every tgt point, tgt left uncompiled."""
    if src.degree != tgt.degree:
        raise DegreeMismatch(f"{src.degree} vs {tgt.degree}")
    out, sizes = [], None
    for orbit, positions in zip(orbits, _root_stabilizers(src, orbits)):
        if len(positions) == 1:
            out.append(range(tgt.size))
        else:
            if sizes is None:  # the orbit size of each tgt point
                sizes = [0] * tgt.size
                for q in _orbit_trees(tgt)[0]:
                    for z in q:
                        sizes[z] = len(q)
            keep = [i for i, m in enumerate(sizes) if len(orbit) % m == 0]
            out.append(keep if len(orbit) == 1 else _fixed_indices(positions, tgt, keep))
        if not out[-1]:
            break
    return out


def count_equivariant_maps(src: FiniteAction, tgt: FiniteAction) -> int:
    """Number of equivariant maps src -> tgt by orbit-stabilizer counting.

    A map is freely determined by sending each orbit representative to a
    point fixed by its stabilizer; the count is the product of the fixed
    point set sizes.
    """
    return math.prod(map(len, _root_images(src, tgt, _orbit_trees(src)[0])))


def enumerate_equivariant_maps(src: FiniteAction, tgt: FiniteAction, limit: int):
    """Materialize every equivariant map src -> tgt as the tuple of the
    target point indices of src's points, in order.

    Raises TooManyMaps when the exact count exceeds ``limit``.
    """
    via = [0] * src.size
    orbits, parent = _orbit_trees(src, via)
    choices = _root_images(src, tgt, orbits)
    count = math.prod(map(len, choices))
    if count > limit:
        raise TooManyMaps(f"{count} equivariant maps exceed limit {limit}")
    tgt_gens = tgt.generator_images()
    maps = []
    for picked in itertools.product(*choices):
        image = [0] * src.size
        for orbit, target in zip(orbits, picked):
            image[orbit[0]] = target
            for z in itertools.islice(orbit, 1, None):
                image[z] = tgt_gens[via[z]][image[parent[z]]]
        maps.append(tuple(image))
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


def _orbit_stabilizers(a: FiniteAction, orbits=None):
    """The stabilizers of the least points of ``orbits`` (all of a's by
    default), grouped by orbit key: (orbit size, stabilizer order,
    stabilizer cycle types)."""
    orbits = _orbit_trees(a)[0] if orbits is None else orbits
    out = {}
    for orbit, positions in zip(orbits, _root_stabilizers(a, orbits)):
        stab = SubgroupElements(a.degree, positions=positions)
        out.setdefault((len(orbit), len(stab), stab.cycle_type_multiset), []).append(stab)
    return out


def action_signature(a: FiniteAction):
    """The orbit keys of ``_orbit_stabilizers``, one per orbit, sorted.

    Equal signatures are necessary (not sufficient) for isomorphism; the
    signature is also what iso failure reports print.
    """
    return tuple(sorted(key for key, stabs in _orbit_stabilizers(a).items() for _ in stabs))


def _orbit_keys(a: FiniteAction):
    """(orbit, key) for each orbit of ``_orbit_trees``; orbits with equal
    keys are isomorphic.  One-point orbits are all trivial and free ones
    (n! points) all regular, so their key is their size.  Any other
    orbit's key is its root form: the generator arrays on it renumbered in
    walk order, its least point 0.  The walk reads only those arrays, so
    the k-th points of two walks with equal forms correspond."""
    orbits = _orbit_trees(a)[0]
    plain = (1, math.factorial(a.degree))
    formed = [orbit for orbit in orbits if len(orbit) not in plain]
    if not formed:
        return [(orbit, len(orbit)) for orbit in orbits]
    rank = [0] * a.size  # each point's place in its orbit's walk
    for orbit in formed:
        for k, z in enumerate(orbit):
            rank[z] = k
    rows = [list(map(rank.__getitem__, g)) for g in a.generator_images()]
    return [
        (orbit, tuple([tuple(map(row.__getitem__, orbit)) for row in rows]))
        if len(orbit) not in plain
        else (orbit, len(orbit))
        for orbit in orbits
    ]


def _unmatched_orbits(a: FiniteAction, b: FiniteAction):
    """The orbits of a and of b left when orbits with equal keys cancel in
    pairs."""
    pending = {}  # key -> b's orbits with that key not yet matched
    for orbit, key in _orbit_keys(b):
        pending.setdefault(key, []).append(orbit)
    rest_a = []
    for orbit, key in _orbit_keys(a):
        match = pending.get(key)
        if match:
            match.pop()
        else:
            rest_a.append(orbit)
    return rest_a, [orbit for orbits in pending.values() for orbit in orbits]


def actions_isomorphic(a: FiniteAction, b: FiniteAction) -> bool:
    """Whether a and b are isomorphic S_n-sets.

    An S_n-set splits into transitive orbits uniquely up to isomorphism,
    and orbits with equal keys (``_orbit_keys``) are isomorphic, so those
    cancel first.  The rest are classified by the multiset of conjugacy
    classes of their roots' stabilizers: equal stabilizers match by count,
    and only the others are tried for conjugacy.
    """
    if a.degree != b.degree:
        raise DegreeMismatch(f"{a.degree} vs {b.degree}")
    if a.size != b.size:
        return False
    if a.size:
        symmetric_order(a.degree)  # the cap, before any shortcut
    rest_a, rest_b = _unmatched_orbits(a, b)
    if len(rest_a) != len(rest_b):
        return False
    sa, sb = _orbit_stabilizers(a, rest_a), _orbit_stabilizers(b, rest_b)
    if sa.keys() != sb.keys() or any(len(sa[key]) != len(sb[key]) for key in sa):
        return False
    # match each stabilizer of a with a conjugate one of b; conjugates share a key
    for key, stabs_a in sa.items():
        left = Counter(sb[key])  # b's stabilizers not yet matched
        unmatched = []
        for H in stabs_a:
            if left[H]:
                left[H] -= 1
            else:
                unmatched.append(H)
        stabs_b = list(left.elements())
        for H in unmatched:
            for i, K in enumerate(stabs_b):
                if subgroups_conjugate(H, K):
                    del stabs_b[i]
                    break
            else:
                return False
    return True
