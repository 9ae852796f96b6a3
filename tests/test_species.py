import copy
import gc
import itertools
import math
import pickle
import random

import pytest

from espece import (
    AdjL,
    AdjR,
    Cauchy,
    Cyc,
    Derive,
    DeriveL,
    Exp,
    ExpPlus,
    Hadamard,
    Lin,
    LinPlus,
    One,
    Perm,
    Pointing,
    Representable,
    Subsets,
    Substitute,
    Sum,
    TruncLeft,
    TruncRight,
    X,
    Zero,
    act,
    as_table,
    cardinality,
    degree_budget,
    enumerate_degree,
    iso_check,
    validate,
)
from espece.errors import (
    BudgetExceeded,
    EnumerationTooLarge,
    InvalidExpr,
    StructureNotOfExpr,
)
from espece import caches, species
from espece.groups import FiniteAction, Permutation, all_permutations, element_images, generators
from espece.species import (
    Table,
    cauchy_layout,
    counts_upto,
    fresh_star,
    generator_arrays,
    structures_on,
)
from espece.transforms import DEFAULT_FAMILY, ISO_POINT_CAP
from helpers import (
    GOLDEN_EXPRS,
    label_map,
    ladder_degree_budget,
    recursive_structures_on,
    reference_generator_arrays,
    reference_validate,
    tables_of,
    transport_generator_images,
    watch_compiles,
)
from helpers import transport as threading_transport

GOLDEN = (
    Zero(),
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
    AdjL(Exp()),
    AdjR(Exp()),
    AdjR(X()),
    DeriveL(Exp()),
    TruncLeft(Lin(), 3),
    TruncRight(Exp(), 2),
)


# --- enumeration -----------------------------------------------------------


def test_cycle_enumeration_count():
    assert len(enumerate_degree(Cyc(), 4).points) == 6


def test_zero_has_no_structures():
    for n in range(5):
        assert enumerate_degree(Zero(), n).points == ()


def test_product_of_singletons_swapped():
    action = enumerate_degree(Cauchy(X(), X()), 2)
    assert len(action.points) == 2
    swap = Permutation((2, 1))
    s, t = action.points
    assert action.act(swap, s) == t
    assert action.act(swap, t) == s


def test_enumeration_matches_counting_on_golden():
    for e in GOLDEN:
        for n in range(6):
            assert len(enumerate_degree(e, n).points) == cardinality(e, n), (e, n)


def _suite_families():
    """The Leibniz, chain-rule and substitution expressions of the suite."""
    family = DEFAULT_FAMILY
    positive = [g for g in family if cardinality(g, 0) == 0]
    out = []
    for f, g in itertools.product(family, family):
        out += [Derive(Cauchy(f, g)), Sum(Cauchy(Derive(f), g), Cauchy(f, Derive(g)))]
    for f, g in itertools.product(family, positive):
        out += [Substitute(f, g), Derive(Substitute(f, g))]
        out += [Cauchy(Substitute(Derive(f), g), Derive(g))]
    return tuple(out)


def test_enumeration_matches_recursive_oracle():
    # equal tuple for tuple, so every builder's output is sorted as well
    tbl = as_table(Cyc(), 5)
    extras = (tbl, Pointing(tbl), DeriveL(Lin()), AdjR(Lin()), TruncLeft(Cyc(), 2))
    extras += (TruncRight(Lin(), 2), Hadamard(tbl, Subsets()), Substitute(tbl, Cyc()))
    species.clear_caches()
    checked = 0
    for e in GOLDEN + GOLDEN_EXPRS + _suite_families() + extras:
        for n in range(6):
            if cardinality(e, n) > 30000:  # AdjR(Lin()) at 5 has 24^5
                assert (e, n) == (AdjR(Lin()), 5)
                continue
            labels = tuple(range(1, n + 1))
            assert structures_on(e, labels) == recursive_structures_on(e, labels), (e, n)
            checked += 1
    assert checked > 500


def test_degree_budget_matches_ladder():
    tbl = as_table(Lin(), 3)
    extras = (tbl, DeriveL(tbl), AdjR(Derive(tbl)), TruncLeft(Derive(Lin()), 2))
    extras += (TruncRight(AdjL(Derive(Derive(Exp()))), 4),)
    for e in GOLDEN + GOLDEN_EXPRS + _suite_families() + extras:
        for n in range(7):
            assert degree_budget(e, n) == ladder_degree_budget(e, n), (e, n)


def test_deep_truncation_chain():
    chain = Lin()
    for i in range(3000):
        chain = TruncLeft(chain, 3) if i % 2 else TruncRight(chain, 3)
    # the outermost of the 3000 is a TruncLeft
    assert enumerate_degree(chain, 3).points == enumerate_degree(Lin(), 3).points
    assert enumerate_degree(chain, 4).points == ()
    assert enumerate_degree(TruncRight(chain, 3), 4).points == (("top",),)
    assert degree_budget(chain, 6) == 3
    assert degree_budget(Derive(chain), 2) == 3


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_degree(Lin(), 8, cap=100)


def test_degree_zero_conventions():
    assert cardinality(Lin(), 0) == 1
    assert cardinality(Perm(), 0) == 1
    assert cardinality(Subsets(), 0) == 1
    assert cardinality(Cyc(), 0) == 0
    assert cardinality(ExpPlus(), 0) == 0
    assert cardinality(LinPlus(), 0) == 0


def test_truncations():
    lt = TruncLeft(Lin(), 2)
    rt = TruncRight(Lin(), 2)
    assert [cardinality(lt, n) for n in range(5)] == [1, 1, 2, 0, 0]
    assert [cardinality(rt, n) for n in range(5)] == [1, 1, 2, 1, 1]
    assert enumerate_degree(rt, 4).points == (("top",),)


# --- the action ------------------------------------------------------------


def test_act_identity():
    action = enumerate_degree(Cyc(), 3)
    e = Permutation.identity(3)
    for s in action.points:
        assert act(Cyc(), e, s) == s


def test_act_on_cycle():
    swap = Permutation((2, 1, 3))  # (1 2)
    assert act(Cyc(), swap, ("cyc", (1, 2, 3))) == ("cyc", (1, 3, 2))


def test_act_on_subset():
    sigma = Permutation((3, 2, 1))  # (1 3)
    assert act(Subsets(), sigma, ("subset", (1, 2))) == ("subset", (2, 3))


def test_act_rejects_foreign_structure():
    with pytest.raises(StructureNotOfExpr):
        act(Cyc(), Permutation.identity(3), ("lin", (1, 2, 3)))


def test_act_on_a_deep_structure():
    # 1100 nested derivative contexts: the structure nests past the
    # recursion limit, and act reads the compiled arrays instead
    e = Exp()
    for _ in range(1100):
        e = Derive(e)
    (s,) = enumerate_degree(e, 2).points
    assert act(e, Permutation((2, 1)), s) is s


def test_action_laws_on_golden():
    for e in GOLDEN:
        for n in range(4):
            action = enumerate_degree(e, n)
            ident = Permutation.identity(n)
            gens = generators(n)
            for s in action.points:
                assert action.act(ident, s) == s
                for g1 in gens:
                    for g2 in gens:
                        lhs = action.act(g1, action.act(g2, s))
                        assert lhs == action.act(g1 * g2, s)
                        assert action.act(g1, s) in action.index


def test_canonicalization_idempotent():
    for e in (Cyc(), Perm(), Substitute(Exp(), Cyc()), Derive(Subsets())):
        for n in range(4):
            action = enumerate_degree(e, n)
            labels = tuple(range(1, n + 1))
            ident = {x: x for x in labels}
            for g in generators(n):
                for s in action.points:
                    moved = action.act(g, s)
                    assert threading_transport(moved, ident, labels) == moved


def test_derivative_star_is_fixed():
    action = enumerate_degree(Derive(Subsets()), 2)
    assert ("deriv", ("subset", (0,))) in action.index
    for g in generators(2):
        moved = action.act(g, ("deriv", ("subset", (0, 1))))
        assert 0 in moved[1][1]


# Derivative contexts nested in every way a reserved label can be passed
# down: through another derivative, a pointing, a substitution block, the
# tuple of a right adjoint, either side of a product, and a table's atoms.
RESERVED_NESTING = (
    Derive(Derive(Cyc())),
    Derive(Pointing(Lin())),
    Pointing(Derive(Subsets())),
    Derive(Substitute(Exp(), Cyc())),
    Derive(AdjR(Lin())),
    Derive(Cauchy(Lin(), Lin())),
    Cauchy(Derive(X()), Derive(Lin())),
    Derive(as_table(Cyc(), 5)),
    Derive(Cauchy(TruncRight(Lin(), 1), AdjL(Lin()))),
)


def test_relabel_matches_label_threading_oracle():
    for e in GOLDEN_EXPRS + RESERVED_NESTING:
        for n in range(5):
            if cardinality(e, n) > 3000:  # Derive(AdjR(Lin())) at 4 has 24^5
                assert n == 4, e
                continue
            labels, tables = tuple(range(1, n + 1)), tables_of(e)
            action = enumerate_degree(e, n)
            structures = action.points
            for sigma, images in element_images(action):
                mapping = label_map(sigma)
                wants = [threading_transport(s, mapping, labels, tables) for s in structures]
                assert [structures[y] for y in images] == wants, (e, sigma)
                # act spells sigma from the same arrays: the least and the greatest point
                for i in {0, len(structures) - 1} if structures else ():
                    assert act(e, sigma, structures[i]) == wants[i], (e, sigma)


def test_nested_derivative_star_naming():
    action = enumerate_degree(Derive(Derive(Subsets())), 1)
    # the double-derivative subsets live inside {1} plus two reserved labels
    assert ("deriv", ("deriv", ("subset", (-1, 0, 1)))) in action.index


# --- combinator semantics --------------------------------------------------


def test_napier_fixed_point():
    for n in range(7):
        assert len(enumerate_degree(Derive(Exp()), n).points) == 1


def test_pointing_counts():
    assert [cardinality(Pointing(Lin()), n) for n in range(4)] == [0, 1, 4, 18]


def test_adjoint_counts():
    assert [cardinality(AdjL(Exp()), n) for n in range(5)] == [0, 1, 2, 3, 4]
    assert [cardinality(AdjR(Exp()), n) for n in range(5)] == [1, 1, 1, 1, 1]
    assert [cardinality(AdjR(Lin()), n) for n in range(4)] == [1, 1, 1, 8]


def test_derive_after_adjl_decomposes():
    for f in (Exp(), Lin(), Cyc(), Subsets()):
        res = iso_check(DeriveL(f), Sum(f, Pointing(f)), 4)
        assert res.isomorphic, (f, res.witness_degree)


def test_derive_after_adjr_count_decomposition():
    for f in (Exp(), Lin(), Cyc(), Subsets()):
        for n in range(5):
            lhs = cardinality(Derive(AdjR(f)), n)
            rhs = cardinality(AdjR(Derive(f)), n) * cardinality(f, n)
            assert lhs == rhs


def test_substitution_structures():
    action = enumerate_degree(Substitute(Exp(), Cyc()), 3)
    assert len(action.points) == 6
    blocks_seen = {s[1][0] for s in action.points}
    assert ((1,), (2,), (3,)) in blocks_seen
    assert ((1, 2, 3),) in blocks_seen


def test_representable_free_orbit():
    action = enumerate_degree(Representable(3), 3)
    assert len(action.points) == 6
    from espece.groups import orbits

    out = orbits(action)
    assert len(out) == 1 and len(out[0].points) == 6


# --- validation ------------------------------------------------------------


def test_validate_substitution():
    assert validate(Substitute(Exp(), Cyc())) == ()
    diags = validate(Substitute(Exp(), Exp()))
    assert any(d.code == "InnerNotPositive" for d in diags)
    assert validate(Derive(Lin())) == ()


def test_invalid_substitution_raises_on_use():
    with pytest.raises(InvalidExpr):
        cardinality(Substitute(Exp(), Exp()), 2)


def test_validate_malformed_table():
    bad = Table(
        "bad",
        [("a", "b")],
        [{(): {"a": "a", "b": "a"}}],
    )
    diags = validate(bad)
    assert any(d.code == "NonBijectiveAction" for d in diags)


def test_validate_table_that_is_no_action():
    # (1 2) swaps a and b and every other permutation fixes them: each row
    # is a bijection and the identity fixes both, but (1 3) = (1 2)(1 3 2)
    # would have to swap them too
    swap = {"a": "b", "b": "a"}
    fix = {"a": "a", "b": "b"}
    rows = {p.images: (swap if p.images == (2, 1, 3) else fix) for p in all_permutations(3)}
    lower = [{(): {}}, {(1,): {}}, {(1, 2): {}, (2, 1): {}}]
    bad = Table("not-an-action", [(), (), (), ("a", "b")], lower + [rows])
    diags = validate(bad)
    assert [(d.code, d.message) for d in diags] == [
        ("NotAnAction", "degree 3, permutation (1, 3, 2)")
    ]


def _random_tree(rng, depth, leaves):
    """A random expression over ``leaves`` whose kinds include every check:
    negative degrees and cutoffs, substitutions into species nonempty at
    degree 0 and derivatives that read a table past its last degree."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((Sum, Cauchy, Hadamard, Substitute))(
            _random_tree(rng, depth - 1, leaves), _random_tree(rng, depth - 1, leaves)
        )
    if kind == 1:
        return rng.choice((TruncLeft, TruncRight))(
            _random_tree(rng, depth - 1, leaves), rng.choice((-1, 0, 2))
        )
    return rng.choice((Derive, Pointing, AdjL, AdjR, DeriveL))(_random_tree(rng, depth - 1, leaves))


def test_validate_matches_a_walk_that_spells_every_path():
    """validate against a walk that spells each node's path as it visits
    it, on seeded random trees, some of them 300 deep."""
    rng = random.Random(21)
    short = Table("short", [("a",), ("b",)], [{(): {"a": "a"}}, {(1,): {"b": "b"}}])
    bad = Table("bad", [("a", "a")], [{(): {"a": "a"}}])
    past = Derive(Derive(short))  # reads short at degree 2
    leaves = (X(), Exp(), Cyc(), One(), Representable(-1), Representable(-3), short, bad, past)
    trees = [_random_tree(rng, rng.randint(1, 6), leaves) for _ in range(300)]
    for _ in range(12):
        e = _random_tree(rng, 3, leaves)
        for _ in range(300):
            roll = rng.randrange(3)
            if roll == 0:
                e = rng.choice((Derive, Pointing, AdjL))(e)
            elif roll == 1:
                e = rng.choice((TruncLeft, TruncRight))(e, rng.choice((-1, 5)))
            else:
                other = _random_tree(rng, 2, leaves)
                kind = rng.choice((Sum, Cauchy, Hadamard, Substitute))
                e = kind(e, other) if rng.random() < 0.5 else kind(other, e)
        trees.append(e)
    found = 0
    for e in trees:
        caches.clear()  # the walk below remembers nothing either
        want = [(d.code, d.where, d.message) for d in reference_validate(e)]
        assert [(d.code, d.where, d.message) for d in validate(e)] == want
        assert [(d.code, d.where, d.message) for d in validate(e)] == want  # remembered nodes
        found += bool(want)
    assert 100 < found < len(trees)
    assert max(len(d.where) for d in validate(trees[-1])) > 600  # paths 300 steps down


def test_tables_of_expressions_are_actions():
    for e in GOLDEN_EXPRS:
        assert validate(as_table(e, 4)) == (), e


def test_table_roundtrip_isomorphic():
    tbl = as_table(Cyc(), 4)
    assert iso_check(tbl, Cyc(), 4).isomorphic
    assert [cardinality(tbl, n) for n in range(5)] == [0, 1, 1, 2, 6]


def test_table_budget():
    tbl = as_table(Lin(), 3)
    assert cardinality(DeriveL(tbl), 3) == 4 * 6
    with pytest.raises(BudgetExceeded):
        cardinality(DeriveL(tbl), 4)
    with pytest.raises(BudgetExceeded):
        cardinality(Derive(tbl), 3)


def test_derivative_counts_shift_the_inner_counts():
    # D^j(e) at n has e's count at n + j, on every golden expression
    for e in GOLDEN_EXPRS:
        inner = [cardinality(e, n) for n in range(10)]
        d = e
        for j in range(1, 4):
            d = Derive(d)
            assert counts_upto(d, 6) == tuple(inner[j : j + 7]), (e, j)
    d = Cyc()
    for _ in range(150):
        d = Derive(d)
    assert counts_upto(d, 20) == tuple(math.factorial(n + 149) for n in range(21))


# --- degree budget ---------------------------------------------------------


def test_degree_budget_examples():
    assert degree_budget(Derive(Derive(Exp())), 3) == 5
    assert degree_budget(Lin(), 4) == 4
    tbl = as_table(Lin(), 3)
    assert degree_budget(DeriveL(tbl), 3) == 3
    assert degree_budget(AdjL(Lin()), 4) == 3
    assert degree_budget(Pointing(Lin()), 4) == 4
    assert degree_budget(TruncLeft(Lin(), 2), 5) == 2


def test_fresh_star_progression():
    assert fresh_star((1, 2, 3)) == 0
    assert fresh_star((0, 1, 2)) == -1
    assert fresh_star((-1, 0, 1)) == -2


def test_hadamard_diagonal_action():
    action = enumerate_degree(Hadamard(Lin(), Lin()), 2)
    assert len(action.points) == 4
    swap = Permutation((2, 1))
    s = ("both", (("lin", (1, 2)), ("lin", (2, 1))))
    assert action.act(swap, s) == ("both", (("lin", (2, 1)), ("lin", (1, 2))))


def test_perm_conjugation_action():
    action = enumerate_degree(Perm(), 2)
    swap = Permutation((2, 1))
    # both elements of the degree-2 symmetric group are central
    for s in action.points:
        assert action.act(swap, s) == s


def test_as_table_rows_match_relabels():
    for e in (Cyc(), Derive(Subsets()), Cauchy(Lin(), Exp()), Substitute(Exp(), Cyc())):
        tbl = as_table(e, 4)
        for n in range(5):
            structures = enumerate_degree(e, n).points
            name = dict(zip(structures, tbl.atoms[n]))
            assert set(tbl.action[n]) == {sigma.images for sigma in all_permutations(n)}
            labels = tuple(range(1, n + 1))
            for sigma in all_permutations(n):
                moved = (threading_transport(s, label_map(sigma), labels) for s in structures)
                want = {name[s]: name[t] for s, t in zip(structures, moved)}
                assert tbl.action[n][sigma.images] == want, (e, sigma)


def test_act_structure_matches_table_action():
    tbl = as_table(Subsets(), 3)
    action = enumerate_degree(tbl, 3)
    ref = enumerate_degree(Subsets(), 3)
    swap = Permutation((2, 1, 3))
    moved_tbl = sorted(action.act(swap, s) for s in action.points)
    assert moved_tbl == sorted(action.points)
    # table transport respects the original species' orbit sizes
    from espece.groups import orbits

    assert sorted(len(o.points) for o in orbits(action)) == sorted(
        len(o.points) for o in orbits(ref)
    )


# --- interning and caches --------------------------------------------------


def test_nodes_are_interned():
    def chain(k):
        e = X()
        for _ in range(k):
            e = Sum(e, X())
        return e

    deep = chain(5000)
    assert chain(5000) is deep
    assert cardinality(deep, 1) == 5001
    assert Sum(as_table(Cyc(), 2), X()) is Sum(as_table(Cyc(), 2), X())
    e = Substitute(Exp(), Cauchy(X(), TruncLeft(Lin(), 2)))
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_intern_table_holds_only_live_nodes():
    """The intern table forgets a node when its last reference goes; while
    it lives, parsing gives it back, its hash holds, and copies and
    pickles return it."""
    from espece.cli import parse_expr

    text = "+".join(["X"] * 1500)
    caches.clear()
    gc.collect()
    before = len(species._NODES)
    e = parse_expr(text)
    assert len(species._NODES) == before + 1499
    h = hash(e)
    assert h == object.__hash__(e)
    caches.clear()  # forget the remembered parse
    assert parse_expr(text) is e and hash(e) == h
    small = parse_expr("E o (C + X) * D(L)")
    assert copy.copy(e) is e and copy.deepcopy(small) is small
    assert pickle.loads(pickle.dumps(small)) is small
    gc.collect()
    assert hash(e) == h
    del e, small
    caches.clear()
    assert len(species._NODES) == before


def test_clear_caches_empties_every_counting_cache():
    """Every table of the owner's registry holds entries after these calls,
    the S_n tables and the remembered queries included, and none after
    clear_caches."""
    from espece import DeriveDyn, adamek_chain, canonical_iso_suite, count_nat, caches
    from espece import hom_day_counts, iso_check, terminal_counts
    from espece.cli import parse_expr, parse_operator
    from espece.transforms import (
        check_monoid,
        exp_algebra,
        exp_mu,
        lin_concat_mu,
        one_algebra,
        tensor_partial_algebras,
    )

    cardinality(Substitute(Exp(), Cyc()), 6)
    cardinality(Substitute(Cauchy(Exp(), Exp()), Cyc()), 6)  # an outer on the Bell triangle
    enumerate_degree(Substitute(Exp(), as_table(Cyc(), 3)), 3)
    enumerate_degree(Substitute(Exp(), Cyc()), 3).generator_images()
    assert not iso_check(parse_expr("S"), parse_expr("L"), 3)  # S_n and cycle types
    count_nat(Exp(), Subsets(), 3)
    canonical_iso_suite(2, names=("napier",))
    adamek_chain(parse_operator("1:0 + X:0"), 3)
    terminal_counts(DeriveDyn(), Exp(), 3)
    hom_day_counts(X(), Lin(), 2)
    assert check_monoid(Lin(), lin_concat_mu(2), ("lin", ()), 2).ok  # and the Cauchy layouts
    exp_mu(2)
    tensor_partial_algebras(exp_algebra(2), one_algebra(2), 2)
    tables = caches.report()
    assert {"S_n tables", "cycle types", "counts", "transforms.iso_check"} <= set(tables)
    assert [name for name, (entries, _) in tables.items() if not entries] == []
    species.clear_caches()
    assert set(caches.report().values()) == {(0, 0)}


def _compile_oracle_exprs():
    """GOLDEN_EXPRS, the suite's expressions over DEFAULT_FAMILY, and the
    node kinds they leave out, each with the largest degree it is read at."""
    family = DEFAULT_FAMILY
    positive = [g for g in family if cardinality(g, 0) == 0]
    exprs = list(GOLDEN_EXPRS)
    for f, g in itertools.product(family, family):
        exprs += [Derive(f * g), Derive(f) * g + f * Derive(g)]
    for f, g in itertools.product(family, positive):
        exprs += [Derive(f(g)), Derive(f)(g) * Derive(g)]
    for f in family:
        exprs += [DeriveL(f), f + Pointing(f), Derive(AdjR(f)), AdjR(Derive(f)) & f]
    exprs += [
        TruncLeft(Lin(), 3),
        TruncRight(Cyc(), 2),
        AdjL(Lin()),
        Derive(Derive(Cyc())),
        Pointing(Derive(Subsets())),
        Lin()(Cyc()),
        Cyc()(X() + ExpPlus()),
    ]
    cyc_table = as_table(Cyc(), 5)
    return [(e, 6) for e in dict.fromkeys(exprs)] + [(cyc_table, 5), (cyc_table(ExpPlus()), 5)]


def test_compiled_arrays_match_relabeling():
    """Each node's arrays, built from its children's, equal relabeling
    every structure along each generator, at every degree up to 6 where
    it has at most ISO_POINT_CAP structures (the suite's clamp)."""
    for e, top in _compile_oracle_exprs():
        for n in range(top + 1):
            if cardinality(e, n) <= ISO_POINT_CAP:
                assert generator_arrays(e, n) == transport_generator_images(e, n), (e, n)


def test_kernels_match_the_point_by_point_compiles():
    """The byte kernels of S and C and the per-shape block patterns of
    f o g give the arrays of the point-by-point compiles they replaced, on
    every expression of the compile oracle up to degree 6 (at most
    ISO_POINT_CAP structures), and for S, C and E o C at degree 7."""
    cases = [(e, n) for e, top in _compile_oracle_exprs() for n in range(top + 1)]
    cases = [(e, n) for e, n in cases if cardinality(e, n) <= ISO_POINT_CAP]
    cases += [(Perm(), 7), (Cyc(), 7), (Substitute(Exp(), Cyc()), 7)]
    for e, n in cases:
        assert generator_arrays(e, n) == reference_generator_arrays(e, n), (e, n)
    species.clear_caches()


def test_equation_leaves_match_relabeling_to_degree_7():
    """L, L+ and y[k] compile through L = 1 + X.L; their arrays equal
    relabeling every structure along each generator one degree past the
    compile oracle."""
    for n in range(8):
        for e in (Lin(), LinPlus()):
            assert generator_arrays(e, n) == transport_generator_images(e, n), (e, n)
    for k in range(8):
        assert generator_arrays(Representable(k), k) == transport_generator_images(
            Representable(k), k
        ), k


def test_closed_form_leaves_match_relabeling_to_degree_7():
    """S (conjugation of one-line tuples), C (relabel, then rotate to
    label 1), E, E+ and P compile in closed form; their arrays equal
    relabeling every structure along each generator."""
    for n in range(8):
        for e in (Perm(), Cyc(), Exp(), ExpPlus(), Subsets()):
            assert generator_arrays(e, n) == transport_generator_images(e, n), (e, n)
    species.clear_caches()


def test_compiles_list_no_structures_and_run_once(monkeypatch):
    """Leaves compile in closed form and L, L+ and y[k] through
    L = 1 + X.L: no compile lists a structure, and each (node, degree)
    compiles once, also under the combinators that read them."""
    compiled, reads = watch_compiles(monkeypatch)
    exprs = [(Lin(), 7), (LinPlus(), 7), (Representable(5), 5)]
    exprs += [(e, 7) for e in (Perm(), Cyc(), Exp(), ExpPlus(), Subsets(), Zero())]
    exprs += [(Substitute(Exp(), Cyc()), 6), (Cauchy(Perm(), Subsets()), 6), (Derive(Perm()), 5)]
    for e, n in exprs:
        species.clear_caches()
        compiled.clear()
        assert len(generator_arrays(e, n)[0]) == cardinality(e, n)
        assert (e, n) in compiled and set(compiled.values()) == {1}, (e, n)
        assert species.caches.report()["enumerations"] == (0, 0), (e, n)
    assert reads == []
    species.clear_caches()


@pytest.mark.parametrize(
    "f, g",
    [
        (Lin(), Lin()),
        (Cyc(), ExpPlus()),
        (Derive(Lin()), Subsets()),
        (ExpPlus(), ExpPlus()),
        (Cyc(), Cyc()),
    ],
)
def test_cauchy_layout_addresses_every_pair(f, g):
    """A pair (U, s1, s2) sits at offset[U] + i1 * |g_(n-|U|)| + i2 among
    the sorted structures of Cauchy(f, g), with i1 and i2 the positions of
    s1 and s2 among the structures on U and on the rest; the layout lists
    exactly the label sets that carry a pair."""
    for n in range(6):
        labels = tuple(range(1, n + 1))
        layout = cauchy_layout(f, g, n)
        pairs = structures_on(Cauchy(f, g), labels)
        assert list(layout) == sorted({U for _, (U, _, _) in pairs}), n
        for pos, (_, (U, s1, s2)) in enumerate(pairs):
            offset, rows, cols = layout[U]
            on_u = structures_on(f, U)
            on_rest = structures_on(g, tuple(x for x in labels if x not in U))
            assert (rows, cols) == (len(on_u), len(on_rest)), (n, U)
            assert pos == offset + on_u.index(s1) * cols + on_rest.index(s2), (n, U)


def test_action_points_are_the_enumeration(monkeypatch):
    """enumerate_degree returns one cached FiniteAction per (e, n), with
    the count as its size and the compiled arrays, which lists no
    structure until a point is read; its points are then the enumeration.
    Same expressions and degrees as the compile oracle.  The sweep holds
    more than caches.CAP slots, and enumerate_degree checks the cap on
    entry, so the cap is raised out of reach: the identity holds while
    no table is emptied."""
    monkeypatch.setattr(caches, "CAP", 10**9)
    exprs = _compile_oracle_exprs()
    species.clear_caches()
    for e, top in exprs:
        for n in range(top + 1):
            if cardinality(e, n) > ISO_POINT_CAP:
                continue
            a = enumerate_degree(e, n)
            assert isinstance(a, FiniteAction)
            assert a.size == cardinality(e, n)
            assert a.generator_images() == generator_arrays(e, n)
            assert "points" not in vars(a), (e, n)
            assert a.points == structures_on(e, tuple(range(1, n + 1))), (e, n)
            assert enumerate_degree(e, n) is a
