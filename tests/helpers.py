"""Independent oracles used across the test suite.

These deliberately avoid the library's orbit-stabilizer, compiled
generator-array and Bell triangle routes: equivariant maps are found by
backtracking over raw assignments checked against every group element,
orbits, stabilizers and fixed points by relabeling along every element
of S_n, compiled actions by relabeling every structure along each
generator, a generator's restriction to a label set by ranking the moved
labels, subgroup conjugacy by multiplying validated permutations, and
substitution counts are summed over explicitly generated set partitions
or over integer partitions.  Every oracle relabels species structures
through ``transport`` here, which threads the label set of every
substructure and renumbers the reserved labels of derivative contexts at
each one, never through the library's compiled action.
Enumeration and degree budgets are checked against the recursive
isinstance ladders the node-kind rules replaced.
Fixpoint chains are checked against the stepwise route: the public
``apply_operator`` iterated from the all-ones sequence, every full
iterate kept to the end.
Command lines are checked against the argparse parser the CLI used to
build on every call.  Natural transformations are point-index tuples in
the library; the label route here moves a structure on any label set
along a transformation by ``transport`` down to 1..m and back
(``threading_apply_on_labels``).  Through it, monoid laws are checked on
structures with the explicit Cauchy associator, and each dynamics' image
and the derivative-algebra tensor on structures, against the library's
index arithmetic over block layouts.
"""

import argparse
import itertools
import math
from collections import Counter
from typing import Tuple

from espece import (
    AdjL,
    AdjLDyn,
    AdjR,
    Cauchy,
    ChainReport,
    CountSeq,
    Cyc,
    Derive,
    DeriveDyn,
    DeriveL,
    Exp,
    ExpPlus,
    Hadamard,
    Lin,
    LinPlus,
    One,
    Perm,
    Pointing,
    PointingDyn,
    Representable,
    SpeciesExpr,
    Subsets,
    Substitute,
    Sum,
    Table,
    TensorBy,
    TruncLeft,
    TruncRight,
    X,
    Zero,
    apply_operator,
    detect_convergence,
    fixpoint_check,
)
from espece.diffeq import default_max_iter
from espece.errors import BudgetExceeded, ShapeMismatch
from espece.groups import all_permutations, generators, permutation_array
from espece.species import (
    _card,
    enumerate_degree,
    fresh_star,
)
from espece.transforms import (
    SUITE_NAMES,
    MonoidReport,
    check_naturality,
)

GOLDEN_EXPRS = (
    One(),
    X(),
    Exp(),
    ExpPlus(),
    Lin(),
    LinPlus(),
    Cyc(),
    Perm(),
    Subsets(),
    Representable(2),
    Sum(Lin(), Cyc()),
    Cauchy(Lin(), Lin()),
    Hadamard(Exp(), Lin()),
    Substitute(Exp(), Cyc()),
    Substitute(Lin(), Cyc()),
    Derive(Lin()),
    Derive(Cyc()),
    Derive(Subsets()),
    Pointing(Lin()),
    AdjR(Exp()),
    DeriveL(Exp()),
)


def label_map(sigma) -> dict:
    """sigma's images as a dict on 1..n, the mapping ``transport`` reads."""
    return dict(enumerate(sigma.images, start=1))


def species_act(sigma, s, tables=None):
    """sigma.s for a species structure s on 1..n, by ``transport``."""
    return transport(s, label_map(sigma), tuple(range(1, sigma.degree + 1)), tables)


def tables_of(*exprs) -> dict:
    """{key: Table} for every Table node in the expressions."""
    out, stack = {}, list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Table):
            out[e.key] = e
        stack.extend(e.children)
    return out


def relabel_table(a, perms, act=species_act):
    """{(sigma, x): sigma.x} for every sigma in perms and point x of a."""
    return {(s, x): act(s, x) for s in perms for x in a.points}


def brute_equivariant_maps(src, tgt, perms=None, act=species_act):
    """All equivariant maps src -> tgt by constraint-checked backtracking."""
    perms = all_permutations(src.degree) if perms is None else perms
    src_act, tgt_act = relabel_table(src, perms, act), relabel_table(tgt, perms, act)
    pts = list(src.points)
    maps = []
    assign = {}

    def consistent(x):
        fx = assign[x]
        for s in perms:
            y = src_act[s, x]
            if y in assign and assign[y] != tgt_act[s, fx]:
                return False
        return True

    def rec(i):
        if i == len(pts):
            maps.append(dict(assign))
            return
        x = pts[i]
        for t in tgt.points:
            assign[x] = t
            if consistent(x):
                rec(i + 1)
            del assign[x]

    rec(0)
    return maps


def brute_equivariant_count(src, tgt):
    return len(brute_equivariant_maps(src, tgt))


def exhaustive_equivariant_count(src, tgt, act=species_act):
    """The dumbest possible count: every function, every permutation."""
    perms = all_permutations(src.degree)
    src_act, tgt_act = relabel_table(src, perms, act), relabel_table(tgt, perms, act)
    count = 0
    for images in itertools.product(tgt.points, repeat=len(src.points)):
        f = dict(zip(src.points, images))
        if all(f[src_act[s, x]] == tgt_act[s, f[x]] for s in perms for x in src.points):
            count += 1
    return count


def find_equivariant_bijection(a, b, act=species_act):
    """Search for an equivariant bijection between two small actions."""
    if len(a.points) != len(b.points):
        return None
    perms = all_permutations(a.degree)
    a_act, b_act = relabel_table(a, perms, act), relabel_table(b, perms, act)
    for images in itertools.permutations(b.points):
        f = dict(zip(a.points, images))
        if all(f[a_act[s, x]] == b_act[s, f[x]] for s in perms for x in a.points):
            return f
    return None


def scan_orbits(a, act=species_act):
    """(least point, sorted orbit) pairs: each point moved by all of S_n."""
    perms = all_permutations(a.degree)
    seen = set()
    out = []
    for x in a.points:
        if x in seen:
            continue
        pts = tuple(sorted({act(s, x) for s in perms}))
        seen.update(pts)
        out.append((pts[0], pts))
    return out


def scan_stabilizer(a, x, act=species_act):
    """All permutations fixing x, by direct scan of S_n."""
    return frozenset(s for s in all_permutations(a.degree) if act(s, x) == x)


def permutation_subgroups_conjugate(H, K):
    """Whether sigma H sigma^-1 = K for some sigma in S_n, by products of Permutations."""
    if len(H) != len(K):
        return False
    for sigma in all_permutations(H.degree):
        inv = sigma.inverse()
        if all(sigma * h * inv in K.elements for h in H.elements):
            return True
    return False


def scan_fixed_points(H, a, act=species_act):
    """Points of a fixed by every element of H, each relabeled along each."""
    return tuple(x for x in a.points if all(act(s, x) == x for s in H.elements))


def rank_restriction(sigma, U):
    """sigma's image of the label set U, sorted, and the permutation of the
    ranks 1..|U| that it induces (one-line), by ranking the moved labels:
    the reference for ``groups.restricted``."""
    moved = [sigma(u) for u in U]
    image = tuple(sorted(moved))
    rank = {y: i for i, y in enumerate(image, start=1)}
    return image, tuple([rank[y] for y in moved])


def transport_generator_images(e: SpeciesExpr, n: int):
    """e's generator arrays at degree n by relabeling every structure along
    each of ``generators(n)``: the compile that ``generator_arrays``
    replaced."""
    action, tables = enumerate_degree(e, n), tables_of(e)
    labels = tuple(range(1, n + 1))
    return tuple(
        tuple([action.index[transport(s, mapping, labels, tables)] for s in action.points])
        for mapping in map(label_map, generators(n))
    )


def embedded_generator_arrays(g: SpeciesExpr, k: int, m: int):
    """The arrays of ``generators(m)`` acting on g at degree k + m through
    the embedding that fixes labels 1..k: each embedded generator as a
    word over g's compiled arrays, the route ``automata._restricted_action``
    replaced."""
    gens = enumerate_degree(g, k + m).generator_images()
    return tuple(
        permutation_array(gens, tuple(range(1, k + 1)) + tuple(k + y for y in sigma.images))
        for sigma in generators(m)
    )


def _min_rotation(xs: Tuple[int, ...]) -> Tuple[int, ...]:
    i = xs.index(min(xs))
    return xs[i:] + xs[:i]


def transport(enc, mapping: dict, labels: Tuple[int, ...], tables=None):
    """Relabel a canonical structure on ``labels`` along a bijection.

    ``mapping`` must be defined on every member of ``labels``; the result
    is the canonical encoding on the image label set.  Reserved labels
    adjoined by derivative contexts below this node are renumbered so the
    result stays canonical.  ``tables`` maps the key of each Table whose
    atoms occur in ``enc`` to that Table (``tables_of``).
    """
    tag = enc[0]
    if tag in ("set", "subset"):
        return (tag, tuple(sorted(map(mapping.__getitem__, enc[1]))))
    if tag == "lin":
        return (tag, tuple(map(mapping.__getitem__, enc[1])))
    if tag == "cyc":
        return (tag, _min_rotation(tuple(map(mapping.__getitem__, enc[1]))))
    if tag == "perm":
        return (tag, tuple(sorted([(mapping[x], mapping[y]) for x, y in enc[1]])))
    if tag == "rep":
        return (tag, tuple(map(mapping.__getitem__, enc[1])))
    if tag == "pair":
        U, sf, sg = enc[1]
        rest = tuple([x for x in labels if x not in U])
        return (
            tag,
            (
                tuple(sorted(map(mapping.__getitem__, U))),
                transport(sf, mapping, U, tables),
                transport(sg, mapping, rest, tables),
            ),
        )
    if tag == "both":
        sf, sg = enc[1]
        return (
            tag,
            (transport(sf, mapping, labels, tables), transport(sg, mapping, labels, tables)),
        )
    if tag in ("inl", "inr"):
        return (tag, transport(enc[1], mapping, labels, tables))
    if tag == "deriv":
        old = fresh_star(labels)
        new = fresh_star([mapping[x] for x in labels])
        inner_labels = tuple(sorted(labels + (old,)))
        m2 = dict(mapping)
        m2[old] = new
        return (tag, transport(enc[1], m2, inner_labels, tables))
    if tag == "point":
        a, inner = enc[1]
        rest = tuple([x for x in labels if x != a])
        old = fresh_star(rest)
        new = fresh_star([mapping[x] for x in rest])
        m2 = dict(mapping)
        m2[old] = new
        return (tag, (mapping[a], transport(inner, m2, tuple(sorted(rest + (old,))), tables)))
    if tag == "adjl":
        a, inner = enc[1]
        rest = tuple([x for x in labels if x != a])
        return (tag, (mapping[a], transport(inner, mapping, rest, tables)))
    if tag == "tuple":
        out = []
        for a, inner in enc[1]:
            rest = tuple([x for x in labels if x != a])
            out.append((mapping[a], transport(inner, mapping, rest, tables)))
        return (tag, tuple(sorted(out)))
    if tag == "part":
        blocks, outer, inners = enc[1]
        new_blocks = [tuple(sorted(map(mapping.__getitem__, blk))) for blk in blocks]
        order = sorted(range(len(new_blocks)), key=lambda i: new_blocks[i])
        rho = {old_i + 1: new_pos + 1 for new_pos, old_i in enumerate(order)}
        k = len(blocks)
        outer2 = transport(outer, rho, tuple(range(1, k + 1)), tables)
        blocks2 = tuple(new_blocks[i] for i in order)
        inners2 = tuple(
            transport(inners[i], mapping, blocks[i], tables) for i in order
        )
        return (tag, (blocks2, outer2, inners2))
    if tag == "atom":
        _, key, name, old_labels = enc
        old_sorted = tuple(sorted(old_labels))
        new_sorted = tuple(sorted(mapping[x] for x in old_labels))
        pos = {lab: i for i, lab in enumerate(new_sorted)}
        pi = tuple(pos[mapping[x]] + 1 for x in old_sorted)
        table = (tables or {})[key]
        new_name = table.action[len(old_sorted)][pi][name]
        return (tag, key, new_name, new_sorted)
    if tag == "top":
        return enc
    raise ValueError(f"unknown structure tag {tag!r}")


def threading_apply_on_labels(t, enc, labels):
    """t applied to a structure on any label set, the reserved labels of a
    derivative context included: moved to 1..m along the order isomorphism
    by ``transport``, through t's component at m, and back."""
    L = tuple(sorted(labels))
    m = len(L)
    down = {lab: i + 1 for i, lab in enumerate(L)}
    up = {i + 1: lab for i, lab in enumerate(L)}
    out = t(m, transport(enc, down, L))
    return transport(out, up, tuple(range(1, m + 1)))


def structure_check_monoid(f, mu, eta, N):
    """``transforms.check_monoid`` on structures: each side of a law is
    computed by calling mu on encodings, moving a pair between label sets
    with ``threading_apply_on_labels``, associativity through the explicit Cauchy
    associator ((u, v), w) -> (u, (v, w)), and each shuffle read over the
    compiled arrays of the whole product."""
    failures = []
    ff = Cauchy(f, f)
    if mu.source != ff or mu.target != f:
        raise ShapeMismatch("multiplication must map Cauchy(f,f) to f")
    if eta not in enumerate_degree(f, 0).index:
        raise ShapeMismatch("unit must be a degree-0 structure of the carrier")
    if not check_naturality(mu):
        failures.append(("naturality", -1))
    for k in range(N + 1):
        labels = tuple(range(1, k + 1))
        for s in enumerate_degree(f, k).points:
            if mu(k, ("pair", ((), eta, s))) != s:
                failures.append(("left-unit", k))
                break
        for s in enumerate_degree(f, k).points:
            if mu(k, ("pair", (labels, s, eta))) != s:
                failures.append(("right-unit", k))
                break
        for t in enumerate_degree(Cauchy(ff, f), k).points:
            _, (W, inner_pair, s3) = t
            left = mu(k, ("pair", (W, threading_apply_on_labels(mu, inner_pair, W), s3)))
            _, (U, s1, s2) = inner_pair
            middle = tuple(x for x in W if x not in U)
            rest_u = tuple(x for x in labels if x not in U)
            right_inner = threading_apply_on_labels(mu, ("pair", (middle, s2, s3)), rest_u)
            if left != mu(k, ("pair", (U, s1, right_inner))):
                failures.append(("associativity", k))
                break
        ff_action = enumerate_degree(ff, k)
        f_action = enumerate_degree(f, k)
        for p in range(k + 1):
            q = k - p
            U = tuple(range(1, p + 1))
            shuffles = [tuple(gp.images) + tuple(range(p + 1, k + 1)) for gp in generators(p)]
            shuffles += [
                tuple(range(1, p + 1)) + tuple(p + gq(j) for j in range(1, q + 1))
                for gq in generators(q)
            ]
            split = {
                i: f_action.index.get(mu(k, s))
                for i, s in enumerate(ff_action.points)
                if s[1][0] == U
            }
            for images in shuffles:
                moved = permutation_array(ff_action.generator_images(), images)
                moved_f = permutation_array(f_action.generator_images(), images)
                if any(
                    y is None or split[moved[i]] != moved_f[y] for i, y in split.items()
                ):
                    failures.append(("shuffle-equivariance", k))
                    break
    return MonoidReport(not failures, tuple(failures))



def _moved_along(dyn, f, enc, k):
    """A degree-k structure of T(E1) with its E1-part moved along f on
    its own labels."""
    labels = tuple(range(1, k + 1))
    if isinstance(dyn, TensorBy):
        _, (U, sa, s) = enc
        rest = tuple(x for x in labels if x not in U)
        return ("pair", (U, sa, threading_apply_on_labels(f, s, rest)))
    if isinstance(dyn, DeriveDyn):
        return ("deriv", threading_apply_on_labels(f, enc[1], labels + (0,)))
    if isinstance(dyn, AdjLDyn):
        a, s = enc[1]
        return ("adjl", (a, threading_apply_on_labels(f, s, tuple(x for x in labels if x != a))))
    if isinstance(dyn, PointingDyn):
        a, s = enc[1]
        rest = tuple(x for x in labels if x != a) + (0,)
        return ("point", (a, threading_apply_on_labels(f, s, rest)))
    _, (b, s) = enc[1]  # DeriveLDyn
    rest = tuple(x for x in labels + (0,) if x != b)
    return ("deriv", ("adjl", (b, threading_apply_on_labels(f, s, rest))))


def label_route_image(dyn, f, k):
    """``dyn.image(f, k)`` on structures: each structure of T(f.source) at
    degree k moved along f on its own labels, as the index of the result
    among T(f.target)'s structures."""
    target = enumerate_degree(dyn.apply(f.target), k).index
    source = enumerate_degree(dyn.apply(f.source), k).points
    return tuple(target[_moved_along(dyn, f, x, k)] for x in source)


def label_route_tensor(a, b, N):
    """The components of ``tensor_partial_algebras(a, b, N).xi`` on
    structures: the part of each derivative pair holding the adjoined
    label 0 moved along its algebra's structure map on its own labels."""
    carrier = Cauchy(a.carrier, b.carrier)
    comps = []
    for k in range(N + 1):
        labels = tuple(range(1, k + 1))
        index = enumerate_degree(carrier, k).index
        comp = []
        for s in enumerate_degree(Derive(carrier), k).points:
            _, (U, sa, sb) = s[1]
            if 0 in U:
                left = tuple(x for x in U if x != 0)
                pair = (left, threading_apply_on_labels(a.xi, ("deriv", sa), left), sb)
            else:
                rest = tuple(x for x in labels if x not in U)
                pair = (U, sa, threading_apply_on_labels(b.xi, ("deriv", sb), rest))
            comp.append(index[("pair", pair)])
        comps.append(tuple(comp))
    return tuple(comps)

def set_partitions(labels):
    labels = tuple(labels)
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (tuple(sorted((first,) + part[i])),) + part[i + 1 :]
        yield ((first,),) + part


_PRIMHOLDS = (Zero, One, X, Representable, Exp, ExpPlus, Lin, LinPlus, Cyc, Perm, Subsets, Table)


def ladder_degree_budget(e: SpeciesExpr, n: int) -> int:
    """``species.degree_budget`` as a recursive isinstance ladder over node kinds."""
    if isinstance(e, _PRIMHOLDS):
        return n
    if isinstance(e, (Sum, Hadamard, Cauchy, Substitute)):
        return max(ladder_degree_budget(e.f, n), ladder_degree_budget(e.g, n))
    if isinstance(e, Derive):
        return ladder_degree_budget(e.f, n + 1)
    if isinstance(e, (Pointing, DeriveL)):
        return ladder_degree_budget(e.f, n)
    if isinstance(e, (AdjL, AdjR)):
        return ladder_degree_budget(e.f, max(n - 1, 0))
    if isinstance(e, (TruncLeft, TruncRight)):
        return ladder_degree_budget(e.f, min(n, e.cutoff))
    raise TypeError(f"not a species expression: {e!r}")


_RECURSIVE_ENUM_CACHE: dict = {}


def recursive_structures_on(e: SpeciesExpr, labels: Tuple[int, ...]) -> Tuple:
    """``species.structures_on`` as a recursion that sorts every node's output,
    over one isinstance ladder of builders."""
    key = (e, labels)
    hit = _RECURSIVE_ENUM_CACHE.get(key)
    if hit is not None:
        return hit
    out = tuple(sorted(_recursive_build(e, labels)))
    _RECURSIVE_ENUM_CACHE[key] = out
    return out


def _recursive_build(e, labels):
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
        for s in recursive_structures_on(e.f, labels):
            yield ("inl", s)
        for s in recursive_structures_on(e.g, labels):
            yield ("inr", s)
    elif isinstance(e, Hadamard):
        if _card(e.f, n) and _card(e.g, n):
            for sf in recursive_structures_on(e.f, labels):
                for sg in recursive_structures_on(e.g, labels):
                    yield ("both", (sf, sg))
    elif isinstance(e, Cauchy):
        for r in range(n + 1):
            if _card(e.f, r) == 0 or _card(e.g, n - r) == 0:
                continue
            for U in itertools.combinations(labels, r):
                rest = tuple(x for x in labels if x not in U)
                for sf in recursive_structures_on(e.f, U):
                    for sg in recursive_structures_on(e.g, rest):
                        yield ("pair", (U, sf, sg))
    elif isinstance(e, Substitute):
        for part in set_partitions(labels):
            blocks = tuple(sorted(part))
            k = len(blocks)
            if _card(e.f, k) == 0:
                continue
            if any(_card(e.g, len(b)) == 0 for b in blocks):
                continue
            inner_lists = [recursive_structures_on(e.g, b) for b in blocks]
            for outer in recursive_structures_on(e.f, tuple(range(1, k + 1))):
                for inners in itertools.product(*inner_lists):
                    yield ("part", (blocks, outer, inners))
    elif isinstance(e, Derive):
        star = fresh_star(labels)
        inner_labels = tuple(sorted(labels + (star,)))
        for s in recursive_structures_on(e.f, inner_labels):
            yield ("deriv", s)
    elif isinstance(e, Pointing):
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            star = fresh_star(rest)
            for s in recursive_structures_on(e.f, tuple(sorted(rest + (star,)))):
                yield ("point", (a, s))
    elif isinstance(e, AdjL):
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            for s in recursive_structures_on(e.f, rest):
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
            per_label.append([(a, s) for s in recursive_structures_on(e.f, rest)])
        for combo in itertools.product(*per_label):
            yield ("tuple", combo)
    elif isinstance(e, DeriveL):
        yield from _recursive_build(Derive(AdjL(e.f)), labels)
    elif isinstance(e, TruncLeft):
        if n <= e.cutoff:
            yield from recursive_structures_on(e.f, labels)
    elif isinstance(e, TruncRight):
        if n <= e.cutoff:
            yield from recursive_structures_on(e.f, labels)
        else:
            yield ("top",)
    else:
        raise TypeError(f"not a species expression: {e!r}")


def substitution_count_oracle(f_counts, g_counts, n):
    """|(f o g)[n]| summed over explicit set partitions of {1..n}."""
    total = 0
    for part in set_partitions(range(1, n + 1)):
        term = f_counts[len(part)]
        for block in part:
            term *= g_counts[len(block)]
        total += term
    return total


def integer_partitions(n):
    """Partitions of n as nonincreasing tuples, largest first part first."""

    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxpart), 0, -1):
            for rest in gen(n - p, p):
                yield (p,) + rest

    return gen(n, n)


def integer_partition_substitution_count(f_counts, g_counts, n):
    """|(f o g)[n]| summed over integer partitions of n.

    Each partition with k parts counts the set partitions of that block
    type times f_k and one g-structure per block.  It reads f_k only for
    partitions with k parts, skips the partition when f_k is 0, reads g
    at the parts largest first and stops at the first zero, so indexing
    short count tuples shows which degrees it consults.
    """
    total = 0
    for lam in integer_partitions(n):
        fk = f_counts[len(lam)]
        if fk == 0:
            continue
        ways = math.factorial(n)
        for part in lam:
            ways //= math.factorial(part)
        for mult in Counter(lam).values():
            ways //= math.factorial(mult)
        prod = fk * ways
        for part in lam:
            prod *= g_counts[part]
            if prod == 0:
                break
        total += prod
    return total


def _reference_nat(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class _ReferenceArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors exit 2 with a one-line message, like parse errors
        self.exit(2, f"{self.prog}: error: {message}\n")


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once built on every call, as the oracle
    of its command table: `main` reads argv into the attributes this
    parser gives, except that `fn` is gone (the handler is looked up by
    `command`).  `--limit` is registered only on enumerate, orbits and
    natenum, and `--max-iter` only on solve, the commands that read them.
    """
    ap = _ReferenceArgumentParser(
        prog="espece",
        description="Exact species calculator: counts, structures, equivariant "
        "maps, machine terminals, and differential fixpoints.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, upto=True, limit=False, max_iter=False):
        if upto:
            p.add_argument("--upto", type=_reference_nat, default=5, help="horizon (default 5)")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if limit:
            p.add_argument("--limit", type=_reference_nat, default=100000, help="enumeration cap")
        if max_iter:
            p.add_argument("--max-iter", type=_reference_nat, default=None, dest="max_iter")

    p = sub.add_parser("coeffs", help="counting sequence of an expression")
    p.add_argument("expr")
    common(p)

    p = sub.add_parser("egf", help="exponential generating coefficients")
    p.add_argument("expr")
    common(p)

    p = sub.add_parser("enumerate", help="all structures at one degree")
    p.add_argument("expr")
    p.add_argument("--degree", type=_reference_nat, required=True)
    common(p, upto=False, limit=True)

    p = sub.add_parser("orbits", help="orbit decomposition at one degree")
    p.add_argument("expr")
    p.add_argument("--degree", type=_reference_nat, required=True)
    common(p, upto=False, limit=True)

    p = sub.add_parser("iso", help="degreewise action isomorphism check")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("natcount", help="count truncated natural transformations")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("natenum", help="enumerate truncated natural transformations")
    p.add_argument("left")
    p.add_argument("right")
    common(p, limit=True)

    p = sub.add_parser("suite", help="run the canonical isomorphism suite")
    p.add_argument("--name", choices=SUITE_NAMES, default=None)
    common(p)

    p = sub.add_parser("monoid", help="check a built-in Cauchy monoid")
    p.add_argument("which", choices=("lin", "exp"))
    common(p)

    p = sub.add_parser("algtensor", help="tensor the exponential derivative algebra")
    common(p)

    p = sub.add_parser("terminal", help="terminal machine counting sequence")
    p.add_argument("--dyn", choices=("adjL", "derive", "pointing", "deriveL", "tensor"),
                   required=True)
    p.add_argument("--by", default=None, help="tensor dynamics expression")
    p.add_argument("--moore", action="store_true")
    p.add_argument("output")
    common(p)

    p = sub.add_parser("homday", help="convolution internal-hom counts")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("solve", help="iterate an operator's fixpoint chain")
    p.add_argument("--op", required=True)
    common(p, max_iter=True)

    p = sub.add_parser("fixcheck", help="contact order of a sequence with its image")
    p.add_argument("--op", required=True)
    p.add_argument("--expr", default=None)
    p.add_argument("--seq", default=None)
    common(p)

    return ap


def stepwise_adamek_chain(D, N: int, max_iter=None) -> ChainReport:
    """The fixpoint chain by whole steps: every iterate is the public
    ``apply_operator`` of the last over its full horizon, and all of them
    are kept until the chain ends."""
    D.validate()
    if max_iter is None:
        max_iter = default_max_iter(N)
    t = CountSeq((1,) * (N + D.max_order * (max_iter + 1) + 1))
    iterates = [t]
    for _ in range(max_iter):
        t = apply_operator(D, t)
        iterates.append(t)
    truncated = tuple(s.truncate(N) for s in iterates)
    convergence = detect_convergence(truncated, N)
    contact = fixpoint_check(D, iterates[-1], N) if convergence.converged else None
    return ChainReport(D, N, truncated, convergence, contact)
