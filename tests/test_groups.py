import itertools
import math
from collections import Counter
from types import SimpleNamespace

import pytest

from espece import (
    Cauchy,
    Cyc,
    Derive,
    Exp,
    Lin,
    Perm,
    Subsets,
    Substitute,
    actions_isomorphic,
    all_permutations,
    count_equivariant_maps,
    enumerate_degree,
    enumerate_equivariant_maps,
    fixed_points,
    stabilizer,
)
from espece.errors import DegreeMismatch, DegreeTooLarge, PointNotInAction, TooManyMaps
from espece import groups
from espece.automata import _restricted_action
from espece.groups import (
    FiniteAction,
    Permutation,
    SubgroupElements,
    _orbit_trees,
    _root_images,
    _symmetric_table,
    _unmatched_orbits,
    action_signature,
    generators,
    orbits,
    permutation_array,
    restricted,
    subgroups_conjugate,
)
from helpers import (
    GOLDEN_EXPRS,
    brute_equivariant_count,
    brute_equivariant_maps,
    exhaustive_equivariant_count,
    find_equivariant_bijection,
    permutation_subgroups_conjugate,
    rank_restriction,
    scan_fixed_points,
    scan_orbits,
    scan_stabilizer,
    species_act,
    watch_compiles,
)


def action_of(expr, n):
    return enumerate_degree(expr, n)


def listed_action(n, points, act):
    """act on the sorted points, as arrays: each point relabeled once per
    generator of S_n."""
    pts = tuple(sorted(points))
    index = {x: i for i, x in enumerate(pts)}
    arrays = tuple(tuple(index[act(g, x)] for x in pts) for g in generators(n))
    return FiniteAction(n, len(pts), lambda: arrays, lambda: pts)


def trivial_action(n, points):
    return listed_action(n, points, lambda s, x: x)


def regular_action(n):
    return listed_action(
        n, [p.images for p in all_permutations(n)], lambda s, x: (s * Permutation(x)).images
    )


# --- permutations ----------------------------------------------------------


def test_all_permutations_sizes():
    assert len(all_permutations(0)) == 1
    assert len(all_permutations(1)) == 1
    assert len(all_permutations(4)) == 24


def test_all_permutations_identity_first_then_lex():
    perms = [p.images for p in all_permutations(3)]
    assert perms[0] == (1, 2, 3)
    assert perms == sorted(perms)
    assert len(set(perms)) == 6


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        all_permutations(9)


def test_group_laws():
    perms = all_permutations(3)
    e = Permutation.identity(3)
    for a in perms:
        assert a * e == a
        assert e * a == a
        assert a * a.inverse() == e
    for a, b, c in itertools.islice(itertools.product(perms, repeat=3), 40):
        assert (a * b) * c == a * (b * c)


def test_generators_generate():
    for n in range(5):
        gens = generators(n)
        seen = {Permutation.identity(n)}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) == len(all_permutations(n))


def test_symmetric_table_walks_all_of_sn():
    for n in range(7):
        perms, steps, position, runs = _symmetric_table(n)
        assert perms[0] == Permutation.identity(n)
        assert sorted(perms, key=lambda p: p.images) == list(all_permutations(n))
        assert len(steps) == len(perms) - 1
        assert all(position[p.images] == t for t, p in enumerate(perms))
        gens = generators(n)
        for t, (parent, j) in enumerate(steps, start=1):
            assert parent < t and perms[t] == gens[j] * perms[parent]
        # the runs list the same steps in position order
        assert [(parent, j) for j, parents in runs for parent in parents] == list(steps)


def test_restricted_reads_the_rank_restriction_off_the_arrays():
    # Lin's action is faithful, so equal arrays mean equal permutations
    lin = [action_of(Lin(), m).generator_images() for m in range(8)]
    for n in range(8):
        for j, sigma in enumerate(generators(n)):
            for r in range(n + 1):
                for U in itertools.combinations(range(1, n + 1), r):
                    image, ranks = rank_restriction(sigma, U)
                    expected = (image, permutation_array(lin[r], ranks))
                    assert restricted(lin[r], n, j, U) == expected, (n, j, U)


# --- orbits and stabilizers ------------------------------------------------


def test_orbit_trees_walk_generator_edges_once_per_point():
    for e in GOLDEN_EXPRS:
        for n in range(5):
            a = action_of(e, n)
            gens = a.generator_images()
            via = [0] * a.size
            orbs, parent = _orbit_trees(a, via)
            assert [sorted(orbit) for orbit in orbs] == _scanned_orbit_indices(a), (e, n)
            assert _orbit_trees(a) == (orbs, parent), (e, n)  # the same walk without via
            for orbit in orbs:
                assert orbit[0] == min(orbit)
                for t, z in enumerate(orbit[1:], start=1):
                    # z is reached from a point listed before it, by one generator
                    assert parent[z] in orbit[:t] and gens[via[z]][parent[z]] == z, (e, n)


def _scanned_orbit_indices(a):
    """The orbits of ``scan_orbits`` as sorted lists of point indices."""
    return [sorted(a.index[x] for x in pts) for _, pts in scan_orbits(a, species_act)]



def test_orbits_trivial_action():
    a = trivial_action(3, ["p", "q", "r"])
    out = orbits(a)
    assert len(out) == 3
    assert all(len(o.points) == 1 for o in out)


def test_orbits_regular_action():
    a = regular_action(2)
    out = orbits(a)
    assert len(out) == 1
    assert len(out[0].points) == 2


def test_orbits_subsets_by_cardinality():
    a = action_of(Subsets(), 3)
    out = orbits(a)
    assert len(out) == 4
    assert sorted(len(o.points) for o in out) == [1, 1, 3, 3]


def test_orbit_representative_is_least():
    a = action_of(Subsets(), 3)
    for o in orbits(a):
        assert o.representative == min(o.points)


def test_stabilizer_trivial_action_full_group():
    a = trivial_action(3, ["x"])
    assert len(stabilizer(a, "x")) == 6


def test_stabilizer_regular_action_trivial():
    a = regular_action(3)
    for x in a.points:
        assert len(stabilizer(a, x)) == 1


def test_stabilizer_subset_singleton():
    a = action_of(Subsets(), 3)
    stab = stabilizer(a, ("subset", (1,)))
    assert len(stab) == 2
    assert Permutation((1, 3, 2)) in stab.elements  # the transposition (2 3)
    assert stab.is_subgroup()


def test_stabilizers_are_subgroups():
    for expr, n in ((Cyc(), 4), (Lin(), 3), (Subsets(), 3)):
        a = action_of(expr, n)
        for o in orbits(a):
            assert stabilizer(a, o.representative).is_subgroup()


def test_stabilizer_point_check():
    a = action_of(Subsets(), 2)
    with pytest.raises(PointNotInAction):
        stabilizer(a, ("subset", (9,)))


def test_act_reads_the_arrays_and_checks_its_point():
    for n in range(6):
        a = regular_action(n)
        for sigma in all_permutations(n):
            array = permutation_array(a.generator_images(), sigma.images)
            for i, x in enumerate(a.points):
                assert a.act(sigma, x) == (sigma * Permutation(x)).images == a.points[array[i]]
    a = regular_action(3)
    with pytest.raises(PointNotInAction):
        a.act(Permutation.identity(3), (1, 2, 4))
    with pytest.raises(PointNotInAction):
        action_of(Subsets(), 2).act(Permutation((2, 1)), ("subset", (9,)))
    with pytest.raises(DegreeMismatch):
        a.act(Permutation((2, 1)), a.points[0])


def test_orbit_stabilizer_theorem():
    import math

    for expr, n in ((Subsets(), 3), (Cyc(), 4), (Lin(), 3)):
        a = action_of(expr, n)
        for o in orbits(a):
            stab = stabilizer(a, o.representative)
            assert len(o.points) * len(stab) == math.factorial(n)


def test_fixed_points_identity_subgroup():
    a = action_of(Subsets(), 3)
    h = SubgroupElements(3, frozenset({Permutation.identity(3)}))
    assert len(fixed_points(h, a)) == len(a.points)


def test_fixed_points_full_group_on_subsets():
    a = action_of(Subsets(), 3)
    h = SubgroupElements(3, frozenset(all_permutations(3)))
    assert fixed_points(h, a) == (("subset", ()), ("subset", (1, 2, 3)))


def test_fixed_points_transposition_on_orders():
    a = action_of(Lin(), 2)
    h = SubgroupElements(2, frozenset(all_permutations(2)))
    assert fixed_points(h, a) == ()


# --- equivariant maps ------------------------------------------------------


def test_count_orders_to_orders():
    a = action_of(Lin(), 2)
    assert count_equivariant_maps(a, a) == 2 == brute_equivariant_count(a, a)


def test_count_singleton_to_subsets():
    for n in range(1, 5):
        src = action_of(Exp(), n)
        tgt = action_of(Subsets(), n)
        assert count_equivariant_maps(src, tgt) == 2


def test_count_cycles_to_derived_cycles_is_zero():
    src = action_of(Cyc(), 2)
    tgt = action_of(Derive(Cyc()), 2)
    assert count_equivariant_maps(src, tgt) == 0 == brute_equivariant_count(src, tgt)


GOLDEN_SMALL = (Exp(), Lin(), Cyc(), Subsets(), Derive(Cyc()), Derive(Exp()))


def test_counts_match_backtracking_oracle():
    for f, g in itertools.product(GOLDEN_SMALL, repeat=2):
        for n in range(4):
            src, tgt = action_of(f, n), action_of(g, n)
            if len(src.points) > 8 or len(tgt.points) > 8:
                continue
            assert count_equivariant_maps(src, tgt) == brute_equivariant_count(src, tgt)


def test_counts_match_exhaustive_oracle_tiny():
    for f, g in ((Lin(), Lin()), (Cyc(), Lin()), (Subsets(), Subsets())):
        for n in range(3):
            src, tgt = action_of(f, n), action_of(g, n)
            if len(tgt.points) ** len(src.points) > 5000:
                continue
            assert count_equivariant_maps(src, tgt) == exhaustive_equivariant_count(src, tgt)


def test_generator_equivariance_suffices():
    # commuting with {(1 2), (1 2 ... n)} commutes with everything
    for f, g in ((Lin(), Cyc()), (Cyc(), Subsets()), (Subsets(), Lin())):
        for n in range(1, 4):
            src, tgt = action_of(f, n), action_of(g, n)
            if len(tgt.points) ** len(src.points) > 5000:
                continue
            gens = generators(n)
            gen_count = 0
            for images in itertools.product(tgt.points, repeat=len(src.points)):
                fn = dict(zip(src.points, images))
                if all(
                    fn[src.act(s, x)] == tgt.act(s, fn[x])
                    for s in gens
                    for x in src.points
                ):
                    gen_count += 1
            assert gen_count == count_equivariant_maps(src, tgt)


def test_enumerate_maps_singleton():
    a = action_of(Exp(), 3)
    maps = enumerate_equivariant_maps(a, a, limit=10)
    assert len(maps) == 1


def test_enumerate_maps_orders():
    a = action_of(Lin(), 2)
    maps = enumerate_equivariant_maps(a, a, limit=10)
    assert a.points == (("lin", (1, 2)), ("lin", (2, 1)))
    assert set(maps) == {(0, 1), (1, 0)}  # the identity and the reversal


def test_enumerate_maps_empty_and_limit():
    src = action_of(Cyc(), 2)
    tgt = action_of(Lin(), 2)
    assert enumerate_equivariant_maps(src, tgt, limit=10) == ()
    big_src = action_of(Lin(), 2)
    with pytest.raises(TooManyMaps):
        enumerate_equivariant_maps(big_src, big_src, limit=1)


def test_degree_mismatch_is_loud():
    from espece.errors import DegreeMismatch

    a2, a3 = action_of(Lin(), 2), action_of(Lin(), 3)
    with pytest.raises(DegreeMismatch):
        count_equivariant_maps(a2, a3)
    with pytest.raises(DegreeMismatch):
        actions_isomorphic(a2, a3)
    h = SubgroupElements(2, frozenset(all_permutations(2)))
    with pytest.raises(DegreeMismatch):
        fixed_points(h, a3)


def test_enumerated_maps_are_equivariant():
    src = action_of(Subsets(), 2)
    tgt = action_of(Derive(Subsets()), 2)
    maps = enumerate_equivariant_maps(src, tgt, limit=1000)
    assert len(maps) == count_equivariant_maps(src, tgt)
    for m in maps:
        fn = {x: tgt.points[i] for x, i in zip(src.points, m)}
        for s in all_permutations(2):
            for x in src.points:
                assert fn[src.act(s, x)] == tgt.act(s, fn[x])


def test_enumerated_maps_match_backtracking_oracle():
    for f, g in itertools.product(GOLDEN_SMALL, repeat=2):
        for n in range(4):
            src, tgt = action_of(f, n), action_of(g, n)
            if len(src.points) > 8 or len(tgt.points) > 8:
                continue
            maps = enumerate_equivariant_maps(src, tgt, limit=10**6)
            brute = brute_equivariant_maps(src, tgt)
            brute = [tuple(tgt.index[m[x]] for x in src.points) for m in brute]
            assert sorted(maps) == sorted(brute)


# --- isomorphism of actions ------------------------------------------------


def test_isomorphic_reflexive():
    a = action_of(Cyc(), 3)
    assert actions_isomorphic(a, a)


def test_subsets_isomorphic_to_set_pairs():
    from espece import Cauchy

    a = action_of(Subsets(), 3)
    b = action_of(Cauchy(Exp(), Exp()), 3)
    assert actions_isomorphic(a, b)
    assert find_equivariant_bijection(a, b) is not None


def test_cycles_not_isomorphic_to_orders():
    a = action_of(Cyc(), 3)
    b = action_of(Lin(), 3)
    assert not actions_isomorphic(a, b)


def test_isomorphic_matches_bijection_search_small():
    exprs = (Exp(), Lin(), Cyc(), Subsets())
    for f, g in itertools.product(exprs, repeat=2):
        for n in (2, 3):
            a, b = action_of(f, n), action_of(g, n)
            if len(a.points) > 6 or len(b.points) > 6:
                continue
            assert actions_isomorphic(a, b) == (find_equivariant_bijection(a, b) is not None)


def test_isomorphic_symmetric_and_implies_invariants():
    a = action_of(Subsets(), 3)
    b = action_of(Derive(Lin()), 3)
    ab, ba = actions_isomorphic(a, b), actions_isomorphic(b, a)
    assert ab == ba
    c = action_of(Lin(), 3)
    d = action_of(Derive(Cyc()), 3)
    assert actions_isomorphic(c, d)
    assert len(c.points) == len(d.points)
    assert len(orbits(c)) == len(orbits(d))


def orbit_action(a, orbit):
    """The transitive S_n-set on one orbit of a (a list of point indices)."""
    idx = sorted(orbit)
    rank = {i: k for k, i in enumerate(idx)}
    arrays = tuple(tuple(rank[g[i]] for i in idx) for g in a.generator_images())
    return FiniteAction(a.degree, len(idx), lambda: arrays, lambda: tuple(a.points[i] for i in idx))


def test_isomorphic_matches_bijection_search_where_root_forms_differ():
    """D(S) and S*L (the der_perm isomorphism) have orbits whose root
    forms differ at degrees 3-5; on each pair of them of one size the
    stabilizer route agrees with the bijection search."""
    for n in (3, 4, 5):
        a, b = action_of(Derive(Perm()), n), action_of(Cauchy(Perm(), Lin()), n)
        rest_a, rest_b = _unmatched_orbits(a, b)
        assert rest_a and actions_isomorphic(a, b), n
        pairs, act = Counter(), remembered(species_act)  # each orbit's relabels are shared
        for O in rest_a:
            for Q in rest_b:
                if len(O) == len(Q):
                    x, y = orbit_action(a, O), orbit_action(b, Q)
                    iso = find_equivariant_bijection(x, y, act) is not None
                    assert actions_isomorphic(x, y) == iso, (n, len(O))
                    pairs[iso] += 1
        assert pairs[True] >= len(rest_a), (n, pairs)


def remembered(act):
    """act, computed once per (permutation, point)."""
    seen = {}

    def once(s, x):
        if (s, x) not in seen:
            seen[s, x] = act(s, x)
        return seen[s, x]

    return once


def _coset_action(H):
    """S_n on the left cosets sigma H, each named by the one-line images
    of its least member."""
    lines = [h.images for h in H.elements]

    def name(sigma):  # sigma's one-line images
        return min(tuple([sigma[i - 1] for i in h]) for h in lines)

    def act(s, x):
        return name(tuple([s.images[i - 1] for i in x]))

    points = {name(sigma.images) for sigma in all_permutations(H.degree)}
    return listed_action(H.degree, points, act), act


def test_isomorphic_tells_apart_non_conjugate_v4_cosets():
    """Two Klein four-groups of S_6 with equal cycle types that are not
    conjugate: their coset actions have equal orbit keys and are not
    isomorphic; a conjugate of one gives an isomorphic action."""
    def four_group(lines):
        return SubgroupElements(6, frozenset(Permutation(p) for p in lines))

    H = four_group(((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 5, 6), (2, 1, 3, 4, 6, 5), (1, 2, 4, 3, 6, 5)))
    K = four_group(((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 5, 6), (3, 4, 1, 2, 5, 6), (4, 3, 2, 1, 5, 6)))
    sigma = Permutation((3, 5, 1, 6, 2, 4))
    moved = SubgroupElements(6, frozenset(sigma * h * sigma.inverse() for h in H.elements))
    (a, act), (b, _), (c, _) = map(_coset_action, (H, K, moved))
    assert action_signature(a) == action_signature(b)
    assert not actions_isomorphic(a, b) and find_equivariant_bijection(a, b, act) is None
    assert actions_isomorphic(a, c) and actions_isomorphic(c, a)


def test_stabilizers_are_walked_only_for_unmatched_orbits(monkeypatch):
    walked = []
    real = groups._stabilizer_at
    monkeypatch.setattr(groups, "_stabilizer_at", lambda a, i: walked.append((a, i)) or real(a, i))
    for n in range(7):
        for f, g in ((Perm(), Substitute(Exp(), Cyc())), (Derive(Perm()), Cauchy(Perm(), Lin()))):
            a, b = action_of(f, n), action_of(g, n)
            rest_a, rest_b = _unmatched_orbits(a, b)
            walked.clear()
            assert actions_isomorphic(a, b)
            # one walk per unmatched root whose stabilizer is neither all
            # of S_n (a one-point orbit) nor the identity (a free orbit)
            expected = [
                (x, orbit[0])
                for x, rest in ((a, rest_a), (b, rest_b))
                for orbit in rest
                if 1 < len(orbit) < math.factorial(n)
            ]
            assert walked == expected, (f, n)
            if f == Perm():
                assert not rest_a and not rest_b


def test_one_point_and_free_orbits_take_shortcuts_under_the_cap():
    """A free orbit may go to any target point, read without compiling
    the target; a one-point orbit only to the target's one-point orbits.
    Neither shortcut passes the cap on S_n."""

    def uncompiled():
        raise AssertionError("the target was compiled")

    free, target = regular_action(3), FiniteAction(3, 5, uncompiled, uncompiled)
    assert count_equivariant_maps(free, target) == 5
    assert count_equivariant_maps(trivial_action(3, ["p"]), action_of(Subsets(), 3)) == 2
    above = trivial_action(9, ["p"])
    with pytest.raises(DegreeTooLarge):
        count_equivariant_maps(above, above)
    with pytest.raises(DegreeTooLarge):
        actions_isomorphic(above, above)


def test_root_images_are_the_scanned_fixed_points_of_root_stabilizers():
    """For every pair of GOLDEN_EXPRS actions at degrees 0-5, each root's
    images are the target points fixed by every element of the root's
    stabilizer, both scanned over S_n, up to the first root with none."""
    for n in range(6):
        actions = [action_of(e, n) for e in GOLDEN_EXPRS]
        acts = [remembered(species_act) for _ in actions]
        for src, src_act in zip(actions, acts):
            orbits_ = _orbit_trees(src)[0]
            stabs = [
                SimpleNamespace(elements=scan_stabilizer(src, src.points[o[0]], src_act))
                for o in orbits_
            ]
            for tgt, tgt_act in zip(actions, acts):
                expected = []
                for H in stabs:
                    fixed = scan_fixed_points(H, tgt, tgt_act)
                    expected.append([tgt.index[x] for x in fixed])
                    if not fixed:
                        break
                got = [list(images) for images in _root_images(src, tgt, orbits_)]
                assert got == expected, (src.points[:1], tgt.points[:1], n)


# --- generator-array routes against the scan oracles -------------------------


def _embedded_act(k):
    """species_act of S_m on the last m of k + m labels."""

    def act(sigma, s):
        return species_act(Permutation(tuple(range(1, k + 1)) + tuple(k + y for y in sigma.images)), s)

    return act


def _oracle_actions():
    for e in GOLDEN_EXPRS:
        for n in range(6):
            yield f"{e!r} at {n}", action_of(e, n), species_act
    for k in range(7):
        for m in range(7 - k):
            yield f"homday X L at k={k}, m={m}", _restricted_action(Lin(), k, m), _embedded_act(k)


def _check_against_oracles(name, a, act, subgroups):
    orbs = orbits(a)
    assert [(o.representative, o.points) for o in orbs] == scan_orbits(a, act), name
    # the least and the greatest point of an orbit have conjugate stabilizers,
    # which are distinct unless the stabilizer is normal
    for x in {p for o in orbs for p in (o.points[0], o.points[-1])}:
        stab = stabilizer(a, x)
        # read off table positions, then compared with the scanned elements
        types = stab.cycle_type_multiset
        scanned = scan_stabilizer(a, x, act)
        assert len(stab) == len(scanned)
        assert types == tuple(sorted(p.cycle_type() for p in scanned)), (name, x)
        assert stab.elements == scanned, (name, x)
        subgroups.add(stab)


def test_orbits_stabilizers_and_conjugacy_match_scan_oracles():
    by_degree = {}
    for name, a, act in _oracle_actions():
        _check_against_oracles(name, a, act, by_degree.setdefault(a.degree, set()))
    for n, subgroups in by_degree.items():
        ordered = sorted(subgroups, key=lambda H: (len(H), sorted(p.images for p in H.elements)))
        for H, K in itertools.product(ordered, repeat=2):
            if len(H) == len(K):
                assert subgroups_conjugate(H, K) == permutation_subgroups_conjugate(H, K), (n, H, K)


def test_fixed_points_match_per_element_relabels():
    for n in range(6):
        actions = [action_of(e, n) for e in GOLDEN_EXPRS]
        subgroups = {stabilizer(a, o.representative) for a in actions for o in orbits(a)}
        subgroups.add(SubgroupElements(n, frozenset(all_permutations(n))))
        for a in actions:
            for H in subgroups:
                assert fixed_points(H, a) == scan_fixed_points(H, a), (a.points[:1], H)


def test_subgroups_from_elements_equal_those_from_positions():
    for e in GOLDEN_EXPRS:
        for n in range(6):
            a = action_of(e, n)
            for x in a.points:
                H = stabilizer(a, x)
                K = SubgroupElements(n, H.elements)
                assert K.positions == H.positions and len(K) == len(H)
                assert K == H and hash(K) == hash(H), (e, n, x)
    with pytest.raises(DegreeTooLarge):
        SubgroupElements(9, [Permutation.identity(9)])


def test_conjugacy_beyond_cycle_types():
    # both have three elements of cycle type (2,2,1,1), but the orbits are
    # {1,2},{3,4},{5,6} against {1,2,3,4},{5},{6}
    H = SubgroupElements(
        6,
        frozenset(
            Permutation(p)
            for p in ((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 5, 6), (2, 1, 3, 4, 6, 5), (1, 2, 4, 3, 6, 5))
        ),
    )
    K = SubgroupElements(
        6,
        frozenset(
            Permutation(p)
            for p in ((1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 5, 6), (3, 4, 1, 2, 5, 6), (4, 3, 2, 1, 5, 6))
        ),
    )
    assert H.is_subgroup() and K.is_subgroup()
    assert H.cycle_type_multiset == K.cycle_type_multiset
    assert not subgroups_conjugate(H, K)
    assert not permutation_subgroups_conjugate(H, K)
    sigma = Permutation((3, 5, 1, 6, 2, 4))
    moved = SubgroupElements(6, frozenset(sigma * h * sigma.inverse() for h in H.elements))
    assert moved.elements != H.elements
    assert subgroups_conjugate(H, moved) and subgroups_conjugate(moved, H)
    assert permutation_subgroups_conjugate(H, moved)


def test_cycle_types_are_computed_once_per_element_of_s_n(monkeypatch):
    from espece import Perm, canonical_iso_suite, groups, species

    calls = []
    real = Permutation.cycle_type
    monkeypatch.setattr(Permutation, "cycle_type", lambda p: calls.append(p) or real(p))
    reads = []
    read = groups._cycle_types
    monkeypatch.setattr(groups, "_cycle_types", lambda n: reads.append(n) or read(n))
    species.clear_caches()  # no cycle type is left over from earlier tests
    assert canonical_iso_suite(5).passed
    used = groups._CYCLE_TYPES
    assert used and len(calls) == sum(math.factorial(n) for n in used)
    # another family is not a remembered suite: it reads the cycle types of
    # every degree again and computes none of them
    reads.clear()
    assert canonical_iso_suite(5, family=(Perm(), Cyc(), Lin())).passed
    assert set(reads) == set(used)
    assert len(calls) == sum(math.factorial(n) for n in used)


def test_group_algorithms_compile_each_node_once(monkeypatch):
    from espece import Cauchy, as_table, species
    from espece.transforms import check_naturality, identity_nat

    compiled, reads = watch_compiles(monkeypatch)
    species.clear_caches()
    counts = []
    for n in range(5):
        a, b = action_of(Subsets(), n), action_of(Cauchy(Exp(), Exp()), n)
        stabs = [stabilizer(a, x) for x in a.points]
        assert len(orbits(a)) == n + 1
        assert actions_isomorphic(a, b)
        assert sum(subgroups_conjugate(stabs[0], H) for H in stabs) > 0
        counts.append((a, b, count_equivariant_maps(a, b)))
        assert len(enumerate_equivariant_maps(b, a, limit=10**6)) == count_equivariant_maps(b, a)
        assert fixed_points(stabilizer(b, b.points[-1]), a)
        assert len(as_table(Subsets(), n).action[n]) == len(all_permutations(n))
    assert check_naturality(identity_nat(Subsets(), 4))
    # each (node, degree) compiles once, the product from its leaves'
    # arrays, and no compile lists a structure
    expected = {(e, n) for e in (Subsets(), Cauchy(Exp(), Exp())) for n in range(5)}
    expected |= {(Exp(), n) for n in range(5)}
    assert set(compiled) == expected and set(compiled.values()) == {1}
    assert reads == []
    # the oracle relabels along every element, so it runs after the count
    assert all(c == brute_equivariant_count(a, b) for a, b, c in counts)
    species.clear_caches()
