"""Independent oracles used across the test suite.

These deliberately avoid the library's orbit-stabilizer, compiled
generator-array and Bell triangle routes: equivariant maps are found by
backtracking over raw assignments checked against every group element,
orbits, stabilizers and fixed points by relabeling along every element
of S_n, compiled actions by relabeling every structure along each
generator (and S, C and substitutions also by their point-by-point
compiles over tuples of ints), a generator's restriction to a label set
by ranking the moved labels, subgroup conjugacy by multiplying validated
permutations (against which the isomorphism of coset actions is checked,
over subgroups closed from pairs of elements), and substitution counts
are summed over explicitly
generated set partitions or over integer partitions.  Every oracle relabels species structures
through ``transport`` here, which threads the label set of every
substructure and renumbers the reserved labels of derivative contexts at
each one, never through the library's compiled action.
Enumeration and degree budgets are checked against the recursive
isinstance ladders the node-kind rules replaced.
Fixpoint chains are checked against the stepwise route: an operator
applied by the per-degree binomial convolution, iterated from the
all-ones sequence with every full iterate kept to the end, convergence
read by walking back from the last iterate once per degree, and
``solve``'s text joined from every iterate rendered in full.
Command lines are checked against the argparse parser the CLI used to
build on every call, and expressions and operators against the
recursive-descent tokenizer and parser it used before it parsed by
precedence climbing; validation against a walk that spells every path
as it goes.  Natural transformations are point-index tuples in
the library; the label route here moves a structure on any label set
along a transformation by ``transport`` down to 1..m and back
(``threading_apply_on_labels``).  Through it, monoid laws are checked on
structures with the explicit Cauchy associator, and each dynamics' image
and the derivative-algebra tensor on structures, against the library's
index arithmetic over block layouts.
"""

import argparse
import itertools
import json
import math
from collections import Counter
from typing import Tuple

from espece import (
    AdjL,
    AdjLDyn,
    AdjR,
    Cauchy,
    ChainReport,
    ConvergenceReport,
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
    contact_order,
)
from espece import species
from espece.diffeq import DiffOperator, default_max_iter
from espece.errors import (
    BudgetExceeded,
    DegreeMismatch,
    Diagnostic,
    ParseError,
    ShapeMismatch,
)
from espece.groups import (
    FiniteAction,
    Permutation,
    SubgroupElements,
    actions_isomorphic,
    all_permutations,
    generator_lines,
    generators,
    inverse_array,
    permutation_array,
    product_sums,
)
from espece.species import (
    _card,
    counts_upto,
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
    """Search for an equivariant bijection between two small actions by
    backtracking: each point of a, in order, tries each unused point of b,
    checked against every group element on the points assigned so far."""
    if len(a.points) != len(b.points):
        return None
    perms = all_permutations(a.degree)
    a_act, b_act = relabel_table(a, perms, act), relabel_table(b, perms, act)
    pts, assign, used = list(a.points), {}, set()

    def consistent(x):
        fx = assign[x]
        return all(
            assign[y] == b_act[s, fx] for s in perms for y in (a_act[s, x],) if y in assign
        )

    def rec(i):
        if i == len(pts):
            return True
        x = pts[i]
        for t in b.points:
            if t in used:
                continue
            assign[x] = t
            used.add(t)
            if consistent(x) and rec(i + 1):
                return True
            del assign[x]
            used.discard(t)
        return False

    return dict(assign) if rec(0) else None


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


def is_subgroup(elements) -> bool:
    """Whether the Permutations ``elements`` hold the identity and are
    closed under products and inverses."""
    if not elements:
        return False
    identity = Permutation.identity(next(iter(elements)).degree)
    return identity in elements and all(
        a * b in elements and a.inverse() in elements for a in elements for b in elements
    )


def listed_action(n, points, act):
    """act on the sorted points, as arrays: each point relabeled once per
    generator of S_n."""
    pts = tuple(sorted(points))
    index = {x: i for i, x in enumerate(pts)}
    arrays = tuple(tuple(index[act(g, x)] for x in pts) for g in generators(n))
    return FiniteAction(n, len(pts), lambda: arrays, lambda: pts)


def coset_action(H):
    """S_n on the left cosets sigma H, each named by the one-line images
    of its least member, and the act it is listed from."""
    lines = [h.images for h in H.elements]

    def name(sigma):  # sigma's one-line images
        return min(tuple([sigma[i - 1] for i in h]) for h in lines)

    def act(s, x):
        return name(tuple([s.images[i - 1] for i in x]))

    points = {name(sigma.images) for sigma in all_permutations(H.degree)}
    return listed_action(H.degree, points, act), act


def two_generated_subgroups(n):
    """The subgroups of S_n generated by two of its elements, closed by
    products of one-line images, ordered by size and then by their sorted
    elements.  For n <= 5 these are all of them: 1, 1, 2, 6, 30 and 156."""
    lines = [p.images for p in all_permutations(n)]
    found = set()
    for i, g in enumerate(lines):
        for h in lines[i:]:
            group, queue = {lines[0]}, [lines[0]]
            for x in queue:  # a queue: the group grows while it is walked
                for s in (g, h):
                    y = tuple([x[j - 1] for j in s])
                    if y not in group:
                        group.add(y)
                        queue.append(y)
            found.add(frozenset(group))
    ordered = sorted(found, key=lambda group: (len(group), sorted(group)))
    return [SubgroupElements(n, frozenset(map(Permutation, group))) for group in ordered]


def coset_isomorphism_mismatches(n):
    """The ordered pairs (H, K) of subgroups of S_n of equal order on
    which ``actions_isomorphic`` of their coset actions disagrees with
    ``permutation_subgroups_conjugate``, and the number of pairs compared
    (every subgroup for n <= 5, see ``two_generated_subgroups``)."""
    subgroups = two_generated_subgroups(n)
    cosets = {H: coset_action(H)[0] for H in subgroups}
    pairs = [(H, K) for H, K in itertools.product(subgroups, repeat=2) if len(H) == len(K)]
    bad = [
        (H, K)
        for H, K in pairs
        if actions_isomorphic(cosets[H], cosets[K]) != permutation_subgroups_conjugate(H, K)
    ]
    return bad, len(pairs)


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


def _tuple_perm_compile(self, n):
    """S's compile over tuples of ints, one Python frame per point."""
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    out = []
    for line in generator_lines(n):
        g, at = ((0,) + line).__getitem__, inverse_array([y - 1 for y in line])
        out.append(tuple([index[tuple(map(g, map(p.__getitem__, at)))] for p in perms]))
    return tuple(out)
    yield


def _tuple_cyc_compile(self, n):
    """C's compile over tuples of ints: rotate each cycle to g's preimage
    of 1, then relabel."""
    if n == 0:
        return species._fixed_arrays(n, 0)
    cycles = [(1,) + t for t in itertools.permutations(range(2, n + 1))]
    index = {c: i for i, c in enumerate(cycles)}
    out = []
    for line in generator_lines(n):
        g, first = ((0,) + line).__getitem__, line.index(1) + 1
        arr = []
        for c in cycles:
            r = c.index(first)
            arr.append(index[tuple(map(g, c[r:] + c[:r]))])
        out.append(tuple(arr))
    return tuple(out)
    yield


def _per_partition_substitute_compile(self, n):
    """f o g's compile with every partition's image worked out on its
    blocks: the image partition, the permutation of block ranks and each
    place value, per partition and generator."""
    fs = species._counts(self.f, n)
    ks = [k for k in range(1, n + 1) if fs[k]]
    gs = species._counts(self.g, n - ks[0] + 1) if ks else ()
    parts = sorted(
        blocks
        for blocks in map(tuple, map(sorted, species._set_partitions(tuple(range(1, n + 1)))))
        if fs[len(blocks)] and all(gs[len(b)] for b in blocks)
    )
    fa, ga = {}, {}
    for k in sorted({len(p) for p in parts}):
        fa[k] = yield self.f, k
    for m in sorted({len(b) for p in parts for b in p}):
        ga[m] = yield self.g, m
    offset, total = {}, 0
    for p in parts:
        offset[p] = total
        total += fs[len(p)] * math.prod(gs[len(b)] for b in p)
    if n < 2:
        return (tuple(range(total)),)
    out = []
    for j in range(len(generator_lines(n))):
        outer = {}
        arr = []
        for p in parts:
            k = len(p)
            if j == 1:
                hit = next(i for i, b in enumerate(p) if b[-1] == n)
                still = hit + 1
                new = (((1,) + tuple([x + 1 for x in p[hit][:-1]])),) + tuple(
                    tuple([x + 1 for x in b]) for b in p[:hit] + p[still:]
                )
                rho = tuple(range(2, still + 1)) + (1,) + tuple(range(still + 1, k + 1))
            elif p[0][:2] == (1, 2):
                hit, still, new, rho = 0, 1, p, tuple(range(1, k + 1))
            else:
                hit, still = None, 2
                new = ((1,) + p[1][1:], (2,) + p[0][1:]) + p[2:]
                rho = (2, 1) + tuple(range(3, k + 1))
            if rho not in outer:
                outer[rho] = permutation_array(fa[k], rho)
            weights, w = [0] * k, 1
            for t in range(k - 1, -1, -1):
                weights[t] = w
                w *= gs[len(new[t])]
            digits = [[offset[new] + x * w for x in outer[rho]]]
            for i in range(still):
                w = weights[rho[i] - 1]
                on_b = ga[len(p[i])][-j] if i == hit else range(gs[len(p[i])])
                digits.append([x * w for x in on_b])
            tail = weights[still - 1]
            if tail == 1:
                arr += product_sums(*digits)
            else:
                for x in product_sums(*digits):
                    arr += range(x, x + tail)
        out.append(tuple(arr))
    return tuple(out)


# S, C and f o g compiled point by point in Python, as before the byte
# kernels and the per-shape block patterns
_REFERENCE_COMPILES = {
    Perm: _tuple_perm_compile,
    Cyc: _tuple_cyc_compile,
    Substitute: _per_partition_substitute_compile,
}


def reference_generator_arrays(e: SpeciesExpr, n: int):
    """e's generator arrays at degree n with every S, C and f o g below it
    compiled by the reference route above, every other node by its own
    compile, on a table of their own."""
    done = {}
    stack = [((e, n), None)]
    while stack:
        key, step = stack[-1]
        if step is None:
            node, m = key
            step = _REFERENCE_COMPILES.get(type(node), type(node).compile)(node, m)
            stack[-1] = key, step
            out = None
        try:
            read = step.send(out)
        except StopIteration as finished:
            stack.pop()
            out = done[key] = finished.value
            continue
        out = done.get(read)
        if out is None:
            stack.append((read, None))
    return done[e, n]


def watch_compiles(monkeypatch):
    """Patch every node kind's ``compile`` to count its runs by (node,
    degree), and ``species.structures_on`` to record each call made while
    a compile runs.  Returns the Counter and the list of (expr, labels)."""
    compiled, reads, running = Counter(), [], [0]

    def counted(real):
        def compile(self, n):
            compiled[self, n] += 1
            step, out = real(self, n), None
            while True:  # run the compile's own steps flagged
                running[0] += 1
                try:
                    read = step.send(out)
                except StopIteration as done:
                    return done.value
                finally:
                    running[0] -= 1
                out = yield read

        return compile

    for kind in vars(species).values():
        if isinstance(kind, type) and issubclass(kind, SpeciesExpr) and "compile" in vars(kind):
            monkeypatch.setattr(kind, "compile", counted(vars(kind)["compile"]))
    listing = species.structures_on

    def structures_on(e, labels):
        if running[0]:
            reads.append((e, labels))
        return listing(e, labels)

    monkeypatch.setattr(species, "structures_on", structures_on)
    return compiled, reads


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


def reference_binomial_convolution(a, b, start: int, stop: int) -> list:
    """Entries start..stop-1 of c_n = sum_k C(n, k) a_k b_(n-k), one
    degree at a time over the nonzero entries of ``a``, skipping zero
    entries of ``b``."""
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


def reference_detect_convergence(seqs, N: int) -> ConvergenceReport:
    """Per-degree stabilization by walking back from the last iterate,
    once per degree, while the value stays the same."""
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
        if len(rows) < 2 or rows[-2][k] != last:
            stable.append(None)
            continue
        j = len(rows) - 1
        while j > 0 and rows[j - 1][k] == last:
            j -= 1
        stable.append(j)
    converged = all(s is not None for s in stable)
    limit = CountSeq.computed(rows[-1][: N + 1]) if converged else None
    witness = next((k for k, s in enumerate(stable) if s is None), None)
    return ConvergenceReport(tuple(stable), converged, limit, witness)


def reference_apply_operator(D, x):
    """D(x) over x's whole horizon less the largest derivative order, by
    ``reference_binomial_convolution``."""
    h = x.horizon - D.max_order
    out = list(counts_upto(D.constant, h)) if D.constant is not None else [0] * (h + 1)
    for a, order in D.terms:
        row = reference_binomial_convolution(counts_upto(a, h), x.coeffs[order:], 0, h + 1)
        out = [u + v for u, v in zip(out, row)]
    return CountSeq(tuple(out))


def stepwise_adamek_chain(D, N: int, max_iter=None) -> ChainReport:
    """The fixpoint chain by whole steps from the oracles: every iterate
    is ``reference_apply_operator`` of the last over its full horizon, all
    of them are kept until the chain ends, and convergence is read by
    ``reference_detect_convergence``."""
    D.validate()
    if max_iter is None:
        max_iter = default_max_iter(N)
    t = CountSeq((1,) * (N + D.max_order * (max_iter + 1) + 1))
    iterates = [t]
    for _ in range(max_iter):
        t = reference_apply_operator(D, t)
        iterates.append(t)
    truncated = tuple(s.truncate(N) for s in iterates)
    convergence = reference_detect_convergence(truncated, N)
    contact = None
    if convergence.converged:
        image = reference_apply_operator(D, iterates[-1])
        contact = contact_order(iterates[-1].truncate(N), image.truncate(N))
    return ChainReport(D, N, truncated, convergence, contact)


def reference_solve_text(report: ChainReport) -> str:
    """``solve``'s text output: every iterate rendered in full and the
    lines joined, with the final newline."""
    lines = [f"iterate {i}: {s.render()}" for i, s in enumerate(report.iterates)]
    if report.converged:
        lines.append(f"Converged: {report.limit.render()}")
        lines.append(f"fixpoint contact: {report.fixpoint_contact}")
    else:
        lines.append(f"Diverged at degree {report.witness}")
    return "\n".join(lines) + "\n"


def reference_solve_json(report: ChainReport, op: str) -> str:
    """``solve --json``'s document, by ``json.dumps``, with the final
    newline."""
    contact = report.fixpoint_contact
    doc = {
        "command": "solve",
        "inputs": {"op": op},
        "horizon": report.horizon,
        "result": {
            "iterates": [list(s.coeffs) for s in report.iterates],
            "converged": report.converged,
            "limit": list(report.limit.coeffs) if report.limit else None,
            "witness": report.witness,
            "fixpoint_contact": None if contact is None else str(contact),
        },
        "diagnostics": [],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# --- the recursive-descent front end ------------------------------------------
# One Python frame per grammar rule, a token per step through peek() and
# take(), and nesting capped at the CLI's 200 levels.

_REFERENCE_ATOM_START = set("01XELCSPYDpad(")
_REFERENCE_PUNCTUATION = {
    "+": "op", "*": "op", "&": "op", "(": "lparen", ")": "rparen", ":": "colon",
}
_REFERENCE_ATOMS = {
    "0": Zero, "1": One, "X": X, "E": Exp, "E+": ExpPlus, "L": Lin, "L+": LinPlus,
    "C": Cyc, "S": Perm, "P": Subsets,
}
_REFERENCE_FUNCS = {"D": Derive, "pt": Pointing, "adjL": AdjL, "adjR": AdjR, "dL": DeriveL}
REFERENCE_MAX_NESTING = 200


def reference_tokenize(text: str):
    """(kind, text, offset) of each token, ending with ("end", "", len(text))."""
    tokens = []
    i, n = 0, len(text)

    def peek_atom_start(j):
        while j < n and text[j].isspace():
            j += 1
        return j < n and text[j] in _REFERENCE_ATOM_START

    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _REFERENCE_PUNCTUATION:
            tokens.append((_REFERENCE_PUNCTUATION[c], c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word in ("E", "L") and j < n and text[j] == "+" and not peek_atom_start(j + 1):
                tokens.append(("atom", word + "+", i))
                i = j + 1
                continue
            tokens.append(("word", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t[0] != kind:
            raise ParseError(f"unexpected {t[1]!r}", t[2], (kind,))
        return self.take()

    def expr(self):
        out = self.term()
        while self.peek()[:2] == ("op", "+"):
            self.take()
            out = Sum(out, self.term())
        return out

    def term(self):
        out = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "&"):
            op = self.take()[1]
            rhs = self.factor()
            out = Cauchy(out, rhs) if op == "*" else Hadamard(out, rhs)
        return out

    def factor(self):
        atoms = [self.atom()]
        while self.peek()[:2] == ("word", "o"):
            self.take()
            atoms.append(self.atom())
        out = atoms.pop()
        while atoms:
            out = Substitute(atoms.pop(), out)
        return out

    def atom(self):
        kind, text, offset = self.peek()
        if text in _REFERENCE_ATOMS:
            self.take()
            return _REFERENCE_ATOMS[text]()
        if kind == "word" and text == "Y":
            self.take()
            self.expect("lparen")
            num = self.expect("nat")
            self.expect("rparen")
            return Representable(int(num[1]))
        if kind == "lparen" or kind == "word" and text in _REFERENCE_FUNCS:
            self.take()
            if kind == "word":
                self.expect("lparen")
            self.depth += 1
            if self.depth > REFERENCE_MAX_NESTING:
                raise ParseError(f"nesting deeper than {REFERENCE_MAX_NESTING}", offset)
            inner = self.expr()
            self.expect("rparen")
            self.depth -= 1
            return _REFERENCE_FUNCS[text](inner) if kind == "word" else inner
        raise ParseError(
            f"expected an atom, found {text!r}",
            offset,
            (*_REFERENCE_ATOMS, "Y(", *(f"{name}(" for name in _REFERENCE_FUNCS), "("),
        )


def reference_parse_expr(text: str):
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _ReferenceParser(text)
    out = p.expr()
    kind, tail, offset = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tail!r}", offset)
    return out


def reference_parse_operator(text: str):
    if not text.strip():
        raise ParseError("empty operator specification", 0)
    p = _ReferenceParser(text)
    terms, constants = [], []
    while True:
        coeff = p.term()
        if p.peek()[0] == "colon":
            p.take()
            order = int(p.expect("nat")[1])
            if order == 0 and isinstance(coeff, One) or (
                order == 0 and isinstance(coeff, Representable) and coeff.k == 0
            ):
                constants.append(coeff)
            else:
                terms.append((coeff, order))
        else:
            constants.append(coeff)
        kind, t, offset = p.peek()
        if kind == "end":
            break
        if (kind, t) == ("op", "+"):
            p.take()
            continue
        raise ParseError(f"unexpected {t!r} in operator", offset, ("+", ":"))
    constant = None
    for c in constants:
        constant = c if constant is None else Sum(constant, c)
    return DiffOperator(tuple(terms), constant)


def reference_validate(e: SpeciesExpr):
    """The diagnostics of e, each node's path spelled as it is visited and
    the valid subexpressions remembered for this call only."""
    diags, valid = [], set()
    stack = [(e, "root", None)]
    while stack:
        node, path, mark = stack.pop()
        if mark is not None:
            first, before = mark
            if len(diags) == before and node.check_with_children is not None:
                diags += [Diagnostic(c, path, m) for c, m in node.check_with_children()]
            if len(diags) == first:
                valid.add(node)
            continue
        if node in valid:
            continue
        first = len(diags)
        if node.check is not None:
            diags += [Diagnostic(c, path, m) for c, m in node.check()]
        stack.append((node, path, (first, len(diags))))
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], f"{path}.{i}", None))
    return tuple(diags)
