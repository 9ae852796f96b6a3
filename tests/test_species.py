import copy
import itertools
import pickle

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
from espece import species
from espece.groups import Permutation, all_permutations, element_images, generators
from espece.species import (
    Table,
    cauchy_layout,
    fresh_star,
    generator_arrays,
    structures_on,
)
from espece.transforms import DEFAULT_FAMILY, ISO_POINT_CAP
from helpers import (
    GOLDEN_EXPRS,
    ladder_degree_budget,
    recursive_structures_on,
    tables_of,
    transport_generator_images,
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
    assert len(enumerate_degree(Cyc(), 4).structures) == 6


def test_zero_has_no_structures():
    for n in range(5):
        assert enumerate_degree(Zero(), n).structures == ()


def test_product_of_singletons_swapped():
    data = enumerate_degree(Cauchy(X(), X()), 2)
    assert len(data.structures) == 2
    swap = Permutation((2, 1))
    s, t = data.structures
    assert data.action.act(swap, s) == t
    assert data.action.act(swap, t) == s


def test_enumeration_matches_counting_on_golden():
    for e in GOLDEN:
        for n in range(6):
            assert len(enumerate_degree(e, n).structures) == cardinality(e, n), (e, n)


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
    assert enumerate_degree(chain, 3).structures == enumerate_degree(Lin(), 3).structures
    assert enumerate_degree(chain, 4).structures == ()
    assert enumerate_degree(TruncRight(chain, 3), 4).structures == (("top",),)
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
    assert enumerate_degree(rt, 4).structures == (("top",),)


# --- the action ------------------------------------------------------------


def test_act_identity():
    data = enumerate_degree(Cyc(), 3)
    e = Permutation.identity(3)
    for s in data.structures:
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
    (s,) = enumerate_degree(e, 2).structures
    assert act(e, Permutation((2, 1)), s) is s


def test_action_laws_on_golden():
    for e in GOLDEN:
        for n in range(4):
            data = enumerate_degree(e, n)
            ident = Permutation.identity(n)
            gens = generators(n)
            for s in data.structures:
                assert data.action.act(ident, s) == s
                for g1 in gens:
                    for g2 in gens:
                        lhs = data.action.act(g1, data.action.act(g2, s))
                        assert lhs == data.action.act(g1 * g2, s)
                        assert data.action.act(g1, s) in data.index


def test_canonicalization_idempotent():
    for e in (Cyc(), Perm(), Substitute(Exp(), Cyc()), Derive(Subsets())):
        for n in range(4):
            data = enumerate_degree(e, n)
            labels = tuple(range(1, n + 1))
            ident = {x: x for x in labels}
            for g in generators(n):
                for s in data.structures:
                    moved = data.action.act(g, s)
                    assert threading_transport(moved, ident, labels) == moved


def test_derivative_star_is_fixed():
    data = enumerate_degree(Derive(Subsets()), 2)
    assert ("deriv", ("subset", (0,))) in data.index
    for g in generators(2):
        moved = data.action.act(g, ("deriv", ("subset", (0, 1))))
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
            data = enumerate_degree(e, n)
            structures = data.structures
            for sigma, images in element_images(data.action):
                wants = [threading_transport(s, sigma.mapping, labels, tables) for s in structures]
                assert [structures[y] for y in images] == wants, (e, sigma)
                # act spells sigma from the same arrays: the least and the greatest point
                for i in {0, len(structures) - 1} if structures else ():
                    assert act(e, sigma, structures[i]) == wants[i], (e, sigma)


def test_nested_derivative_star_naming():
    data = enumerate_degree(Derive(Derive(Subsets())), 1)
    # the double-derivative subsets live inside {1} plus two reserved labels
    assert ("deriv", ("deriv", ("subset", (-1, 0, 1)))) in data.index


# --- combinator semantics --------------------------------------------------


def test_napier_fixed_point():
    for n in range(7):
        assert len(enumerate_degree(Derive(Exp()), n).structures) == 1


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
    data = enumerate_degree(Substitute(Exp(), Cyc()), 3)
    assert len(data.structures) == 6
    blocks_seen = {s[1][0] for s in data.structures}
    assert ((1,), (2,), (3,)) in blocks_seen
    assert ((1, 2, 3),) in blocks_seen


def test_representable_free_orbit():
    data = enumerate_degree(Representable(3), 3)
    assert len(data.structures) == 6
    from espece.groups import orbits

    out = orbits(data.action)
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
    data = enumerate_degree(Hadamard(Lin(), Lin()), 2)
    assert len(data.structures) == 4
    swap = Permutation((2, 1))
    s = ("both", (("lin", (1, 2)), ("lin", (2, 1))))
    assert data.action.act(swap, s) == ("both", (("lin", (2, 1)), ("lin", (1, 2))))


def test_perm_conjugation_action():
    data = enumerate_degree(Perm(), 2)
    swap = Permutation((2, 1))
    # both elements of the degree-2 symmetric group are central
    for s in data.structures:
        assert data.action.act(swap, s) == s


def test_as_table_rows_match_relabels():
    for e in (Cyc(), Derive(Subsets()), Cauchy(Lin(), Exp()), Substitute(Exp(), Cyc())):
        tbl = as_table(e, 4)
        for n in range(5):
            structures = enumerate_degree(e, n).structures
            name = dict(zip(structures, tbl.atoms[n]))
            assert set(tbl.action[n]) == {sigma.images for sigma in all_permutations(n)}
            labels = tuple(range(1, n + 1))
            for sigma in all_permutations(n):
                moved = (threading_transport(s, sigma.mapping, labels) for s in structures)
                want = {name[s]: name[t] for s, t in zip(structures, moved)}
                assert tbl.action[n][sigma.images] == want, (e, sigma)


def test_act_structure_matches_table_action():
    tbl = as_table(Subsets(), 3)
    data = enumerate_degree(tbl, 3)
    ref = enumerate_degree(Subsets(), 3)
    swap = Permutation((2, 1, 3))
    moved_tbl = sorted(data.action.act(swap, s) for s in data.structures)
    assert moved_tbl == sorted(data.structures)
    # table transport respects the original species' orbit sizes
    from espece.groups import orbits

    assert sorted(len(o.points) for o in orbits(data.action)) == sorted(
        len(o.points) for o in orbits(ref.action)
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


def test_clear_caches_empties_every_counting_cache():
    cardinality(Substitute(Exp(), Cyc()), 6)
    enumerate_degree(Substitute(Exp(), as_table(Cyc(), 3)), 3)
    caches = (
        species._COUNT_CACHE,
        species._BELL_CACHE,
        species._VALIDATED,
        species._ENUM_CACHE,
        species._DEGREE_CACHE,
        species._COMPILE_CACHE,
    )
    enumerate_degree(Substitute(Exp(), Cyc()), 3).action.generator_images()
    assert all(caches)
    species.clear_caches()
    assert not any(caches)


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


def test_action_points_are_the_enumeration():
    """enumerate_degree's action has the count as its size and the
    compiled arrays, and lists no structure until a point is read; its
    points are then the enumeration.  Same expressions and degrees as the
    compile oracle."""
    exprs = _compile_oracle_exprs()
    species.clear_caches()
    for e, top in exprs:
        for n in range(top + 1):
            if cardinality(e, n) > ISO_POINT_CAP:
                continue
            data = enumerate_degree(e, n)
            a = data.action
            assert a.size == cardinality(e, n)
            assert a.generator_images() == generator_arrays(e, n)
            assert "points" not in vars(a), (e, n)
            assert data.structures is a.points
            assert a.points == structures_on(e, tuple(range(1, n + 1))), (e, n)
            assert enumerate_degree(e, n) is data
