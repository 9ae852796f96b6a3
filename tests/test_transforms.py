import pytest

from espece import (
    AT_LEAST_HORIZON,
    AdjR,
    Cauchy,
    Cyc,
    Derive,
    Exp,
    Lin,
    Perm,
    Pointing,
    Subsets,
    Substitute,
    X,
    canonical_iso_suite,
    check_monoid,
    check_naturality,
    contact_order,
    count_nat,
    count_seq,
    enumerate_degree,
    enumerate_nat,
    exp_algebra,
    identity_nat,
    iso_check,
    lin_concat_mu,
    one_algebra,
    tensor_partial_algebras,
    uniform_subset_coalgebras,
)
from espece import transforms
from espece.errors import InvalidAlgebra, ShapeMismatch, TooManyMaps
from espece.species import structures_on
from espece.transforms import NatTrans, apply_on_labels, build_nat, exp_mu, nat_to_json
from helpers import (
    brute_equivariant_count,
    structure_check_monoid,
    threading_apply_on_labels,
)


# --- counting and enumerating natural families -----------------------------


def test_iso_and_natcount_build_no_composite_structure(monkeypatch):
    import io

    from espece import species
    from espece.cli import main

    builds = []

    def counted(real):
        return lambda self, labels: builds.append(self) or real(self, labels)

    for kind in (species.Cauchy, species.Substitute):
        monkeypatch.setattr(kind, "build", counted(kind.build))
    species.clear_caches()
    out = io.StringIO()
    assert main(["iso", "S", "E o C", "--upto", "6"], out) == 0
    assert out.getvalue() == "isomorphic up to degree 6: true\n"
    assert count_nat(Cauchy(Exp(), Exp()), Subsets(), 5)[1] > 0
    assert builds == []
    species.clear_caches()


def test_count_nat_exponential_targets():
    per, cum = count_nat(Exp(), Derive(Exp()), 4)
    assert per == (1, 1, 1, 1, 1)
    assert cum == 1


def test_count_nat_cycles_obstruction():
    per, cum = count_nat(Cyc(), Derive(Cyc()), 2)
    assert per == (1, 1, 0)
    assert cum == 0


def test_count_nat_orders_multiplicity():
    per, _ = count_nat(Lin(), Derive(Lin()), 3)
    assert any(v > 1 for v in per[: 4])
    assert per[1] == 2  # two order-structures on a two-set target


def test_count_nat_matches_brute_force():
    pairs = (
        (Lin(), Derive(Lin())),
        (Cyc(), Derive(Cyc())),
        (Subsets(), Derive(Subsets())),
        (Exp(), Subsets()),
    )
    for f, g in pairs:
        for k in range(4):
            src = enumerate_degree(f, k)
            tgt = enumerate_degree(g, k)
            if len(src.points) > 8 or len(tgt.points) > 8:
                continue
            assert count_nat(f, g, k)[0][k] == brute_equivariant_count(src, tgt)


def test_enumerate_nat_singleton():
    nats = enumerate_nat(Exp(), Exp(), 3, limit=5)
    assert len(nats) == 1
    assert check_naturality(nats[0])


def test_enumerate_nat_subsets_to_derived():
    nats = enumerate_nat(Subsets(), Derive(Subsets()), 1, limit=100)
    per, cum = count_nat(Subsets(), Derive(Subsets()), 1)
    assert per == (2, 16)
    assert len(nats) == cum == 32
    assert all(check_naturality(t) for t in nats)


def test_enumerate_nat_empty_and_limit():
    assert enumerate_nat(Cyc(), Lin(), 2, limit=10) == ()
    with pytest.raises(TooManyMaps):
        enumerate_nat(Subsets(), Derive(Subsets()), 1, limit=3)


# --- naturality checking ---------------------------------------------------


def test_identity_is_natural():
    assert check_naturality(identity_nat(Lin(), 3))


def test_order_reversal_is_natural():
    rev = build_nat(Lin(), Lin(), 3, lambda k, s: ("lin", tuple(reversed(s[1]))))
    assert check_naturality(rev)


def test_constructed_unnatural_map():
    comps = {
        0: {("lin", ()): ("lin", ())},
        1: {("lin", (1,)): ("lin", (1,))},
        2: {("lin", (1, 2)): ("lin", (1, 2)), ("lin", (2, 1)): ("lin", (1, 2))},
    }
    t = NatTrans(Lin(), Lin(), 2, comps)
    assert not check_naturality(t)


def test_partial_component_fails():
    comps = {0: {}, 1: {}}
    t = NatTrans(Lin(), Lin(), 1, comps)
    assert not check_naturality(t)


# --- isomorphism checks ----------------------------------------------------


def test_subsets_decomposition():
    assert iso_check(Subsets(), Cauchy(Exp(), Exp()), 5).isomorphic


def test_derived_orders_decomposition():
    assert iso_check(Derive(Lin()), Cauchy(Lin(), Lin()), 5).isomorphic


def test_permutations_vs_orders():
    res = iso_check(Perm(), Lin(), 2)
    assert not res.isomorphic
    assert res.witness_degree == 2
    assert res.detail  # the stabilizer-class signatures of both sides
    # same counting sequences: equal counts do not imply isomorphism
    assert contact_order(count_seq(Perm(), 5), count_seq(Lin(), 5)) == AT_LEAST_HORIZON


def test_iso_implies_contact():
    assert iso_check(Derive(Cyc()), Lin(), 4).isomorphic
    assert contact_order(count_seq(Derive(Cyc()), 4), count_seq(Lin(), 4)) == AT_LEAST_HORIZON


# --- the canonical isomorphism suite ---------------------------------------


def test_suite_named_cases():
    rep = canonical_iso_suite(4, names=("leibniz",), family=(Lin(), Exp()))
    assert rep.passed
    rep = canonical_iso_suite(4, names=("commutation",), family=(Exp(),))
    assert rep.passed
    rep = canonical_iso_suite(6, names=("napier",))
    assert rep.passed


def test_suite_all_names_small_horizon():
    rep = canonical_iso_suite(3)
    assert rep.passed
    assert {e.name for e in rep.entries} == {
        "leibniz",
        "chain_rule",
        "perm_decomp",
        "der_cyc",
        "der_perm",
        "napier",
        "commutation",
        "der_R",
        "R_der",
        "lin_free",
    }


def test_suite_unknown_name():
    with pytest.raises(ValueError):
        canonical_iso_suite(3, names=("nonsense",))


# --- monoids ----------------------------------------------------------------


def test_concatenation_monoid():
    report = check_monoid(Lin(), lin_concat_mu(4), ("lin", ()), 4)
    assert report.ok


def test_exponential_monoid():
    report = check_monoid(Exp(), exp_mu(4), ("set", ()), 4)
    assert report.ok


def test_reversed_concatenation_fails_associativity():
    def fn(k, s):
        _, (_, left, right) = s
        return ("lin", tuple(reversed(left[1] + right[1])))

    mu = build_nat(Cauchy(Lin(), Lin()), Lin(), 3, fn)
    report = check_monoid(Lin(), mu, ("lin", ()), 3)
    assert not report.ok
    assert ("associativity", 3) in report.failures


def _mu(f, tag, fn):
    """N -> the multiplication Cauchy(f, f) -> f that joins the label
    tuples of the two parts with fn."""
    return lambda N: build_nat(
        Cauchy(f, f), f, N, lambda k, s: (tag, fn(s[1][1][1], s[1][2][1]))
    )


def _interleave(a, b):
    out = ()
    for i in range(max(len(a), len(b))):
        out += a[i : i + 1] + b[i : i + 1]
    return out


MONOID_CASES = {
    "L concatenation": (Lin(), lin_concat_mu, ("lin", ())),
    "L reversed concatenation": (
        Lin(),
        _mu(Lin(), "lin", lambda a, b: tuple(reversed(a + b))),
        ("lin", ()),
    ),
    "L opposite concatenation": (Lin(), _mu(Lin(), "lin", lambda a, b: b + a), ("lin", ())),
    "L sorted concatenation": (
        Lin(),
        _mu(Lin(), "lin", lambda a, b: tuple(sorted(a + b))),
        ("lin", ()),
    ),
    "L interleaving": (Lin(), _mu(Lin(), "lin", _interleave), ("lin", ())),
    "E union": (Exp(), exp_mu, ("set", ())),
    "S union": (
        Subsets(),
        _mu(Subsets(), "subset", lambda a, b: tuple(sorted(a + b))),
        ("subset", ()),
    ),
    "S left projection": (Subsets(), _mu(Subsets(), "subset", lambda a, b: a), ("subset", ())),
}


@pytest.mark.parametrize("name", sorted(MONOID_CASES))
def test_monoid_laws_on_indices_match_the_structure_route(name):
    f, make, eta = MONOID_CASES[name]
    for N in range(6):
        mu = make(N)
        assert check_monoid(f, mu, eta, N) == structure_check_monoid(f, mu, eta, N), N


def test_monoid_laws_move_no_structure_between_label_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_monoid works on point indices only")

    monkeypatch.setattr(transforms, "apply_on_labels", refuse)
    monkeypatch.setattr(transforms, "structures_on", refuse)
    assert check_monoid(Lin(), lin_concat_mu(4), ("lin", ()), 4).ok


def test_monoid_reports_a_law_once_per_failing_split():
    f, make, eta = MONOID_CASES["L sorted concatenation"]
    report = check_monoid(f, make(2), eta, 2)
    assert report.failures == (
        ("naturality", -1),
        ("left-unit", 2),
        ("right-unit", 2),
        ("shuffle-equivariance", 2),
        ("shuffle-equivariance", 2),
    )


def _with_entry(mu, k, key, value=None):
    comps = {d: dict(c) for d, c in mu.components.items()}
    if value is None:
        del comps[k][key]
    else:
        comps[k][key] = value
    return NatTrans(mu.source, mu.target, mu.horizon, comps)


@pytest.mark.parametrize("k", range(4))
def test_malformed_multiplication_raises_up_front(k):
    mu = lin_concat_mu(3)
    for key in (min(mu.components[k]), max(mu.components[k])):
        for value in (None, ("lin", (9,))):
            bad = _with_entry(mu, k, key, value)
            with pytest.raises(ShapeMismatch):
                check_monoid(Lin(), bad, ("lin", ()), 3)
            with pytest.raises(ShapeMismatch):
                structure_check_monoid(Lin(), bad, ("lin", ()), 3)


def test_malformed_multiplication_raises_where_the_structure_route_reported():
    # the structure route stops its associativity scan at the first failing
    # triple and reads the shuffles' split with .get, so it never meets
    # the image off L and returns a report instead
    _, make, eta = MONOID_CASES["L reversed concatenation"]
    key = ("pair", ((1,), ("lin", (1,)), ("lin", (2, 3))))
    bad = _with_entry(make(3), 3, key, ("lin", (9,)))
    with pytest.raises(ShapeMismatch):
        check_monoid(Lin(), bad, eta, 3)
    report = structure_check_monoid(Lin(), bad, eta, 3)
    assert ("shuffle-equivariance", 3) in report.failures


# --- derivative algebras ----------------------------------------------------


def test_tensor_exponential_algebras():
    a = exp_algebra(3)
    prod = tensor_partial_algebras(a, a, 3)
    assert prod.carrier == Cauchy(Exp(), Exp())
    assert check_naturality(prod.xi)


def test_tensor_unit_algebra():
    a = exp_algebra(3)
    unit = tensor_partial_algebras(a, one_algebra(3), 3)
    assert iso_check(unit.carrier, Exp(), 3).isomorphic
    other = tensor_partial_algebras(one_algebra(3), a, 3)
    assert iso_check(other.carrier, Exp(), 3).isomorphic


def test_tensor_associativity_up_to_iso():
    a = exp_algebra(3)
    prod = tensor_partial_algebras(a, a, 3)
    left = tensor_partial_algebras(prod, a, 3)
    right = tensor_partial_algebras(a, prod, 3)
    assert iso_check(left.carrier, right.carrier, 3).isomorphic
    assert check_naturality(left.xi) and check_naturality(right.xi)


def test_tensor_nontrivial_algebras():
    # delete-the-adjoined-point structure maps on orders and on subsets;
    # tensoring them exercises label transport on rich structures
    def drop_star_lin(k, s):
        return ("lin", tuple(x for x in s[1][1] if x != 0))

    def drop_star_subset(k, s):
        return ("subset", tuple(x for x in s[1][1] if x != 0))

    from espece.transforms import PartialAlgebra

    lin_alg = PartialAlgebra(Lin(), build_nat(Derive(Lin()), Lin(), 3, drop_star_lin))
    sub_alg = PartialAlgebra(
        Subsets(), build_nat(Derive(Subsets()), Subsets(), 3, drop_star_subset)
    )
    assert check_naturality(lin_alg.xi)
    assert check_naturality(sub_alg.xi)
    for a, b in ((lin_alg, lin_alg), (lin_alg, sub_alg), (sub_alg, exp_algebra(3))):
        prod = tensor_partial_algebras(a, b, 3)  # validates naturality itself
        assert prod.carrier == Cauchy(a.carrier, b.carrier)
        for k in range(4):
            comp = prod.xi.components[k]
            assert len(comp) == len(enumerate_degree(Derive(prod.carrier), k).points)


def test_tensor_rejects_bad_algebra():
    from espece.transforms import PartialAlgebra

    comps = {
        k: {s: ("lin", tuple(range(1, k + 1))) for s in enumerate_degree(Derive(Lin()), k).points}
        for k in range(3)
    }
    bad = PartialAlgebra(Lin(), NatTrans(Derive(Lin()), Lin(), 2, comps))
    assert not check_naturality(bad.xi)
    with pytest.raises(InvalidAlgebra):
        tensor_partial_algebras(bad, exp_algebra(2), 2)


def test_uniform_subset_maps_natural():
    quad = uniform_subset_coalgebras(4)
    assert set(quad) == {"U-left", "U-right", "Uc-left", "Uc-right"}
    for t in quad.values():
        assert check_naturality(t)
    # the four maps are pairwise distinct at degree 1
    tables = {tuple(sorted(t.components[1].items())) for t in quad.values()}
    assert len(tables) == 4


def test_apply_on_labels_transport():
    mu = lin_concat_mu(3)
    out = apply_on_labels(mu, ("pair", ((2,), ("lin", (2,)), ("lin", (5,)))), (2, 5))
    assert out == ("lin", (2, 5))


def test_apply_on_labels_rejects_a_structure_not_on_the_labels():
    mu = lin_concat_mu(3)
    t = build_nat(Derive(Lin()), Derive(Lin()), 3, _reversal)
    for labels, enc in (
        ((2, 5), ("pair", ((2,), ("lin", (2,)), ("lin", (9,))))),  # label 9 is not in the set
        ((2, 5), ("lin", (2, 5))),  # a structure of another species
        ((2, 5), ("pair", 5)),  # not shaped like a structure
    ):
        with pytest.raises(ShapeMismatch):
            apply_on_labels(mu, enc, labels)
    # with the reserved label 0 of an enclosing derivative context
    assert apply_on_labels(t, ("deriv", ("lin", (-1, 0, 1))), (0, 1)) == ("deriv", ("lin", (1, 0, -1)))
    for enc in (("deriv", ("lin", (-1, 0, 2))), ("deriv", ("lin", (0, 1)))):
        with pytest.raises(ShapeMismatch):
            apply_on_labels(t, enc, (0, 1))


def _swap_halves(k, s):
    """The symmetry F*F -> F*F exchanging the two factors."""
    _, (U, sf, sg) = s
    return ("pair", (tuple(x for x in range(1, k + 1) if x not in U), sg, sf))


def _reversal(k, s):
    """Reversing the order under a derivative context: D(L) -> D(L)."""
    return ("deriv", ("lin", s[1][1][::-1]))


def _nats_with_derivative_contexts(N):
    yield build_nat(Derive(Lin()), Derive(Lin()), N, _reversal)
    half = Derive(Lin())
    yield build_nat(Cauchy(half, half), Cauchy(half, half), N, _swap_halves)
    yield build_nat(Cauchy(Derive(X()), Derive(X())), Cauchy(Derive(X()), Derive(X())), N, _swap_halves)
    blocks = Substitute(Exp(), Cauchy(X(), Derive(Lin())))
    for e in (Pointing(Derive(Subsets())), Derive(blocks), AdjR(Derive(X()))):
        yield identity_nat(e, N)


def test_apply_on_labels_on_non_contiguous_labels():
    for t in _nats_with_derivative_contexts(3):
        assert check_naturality(t)
        for s in structures_on(t.source, (2, 5, 9)):
            want = threading_apply_on_labels(t, s, (2, 5, 9))
            assert apply_on_labels(t, s, (2, 5, 9)) == want, (t.source, s)


def test_apply_on_labels_under_a_derivative_context():
    # the label set holds the reserved label 0 of the enclosing context, as
    # in the derivative, pointing and derivative-of-adjoint dynamics
    for t in _nats_with_derivative_contexts(4):
        for k in range(4):
            labels = tuple(range(1, k + 1))
            for s in enumerate_degree(Derive(t.source), k).points:
                got = apply_on_labels(t, s[1], labels + (0,))
                assert got == threading_apply_on_labels(t, s[1], labels + (0,)), (t.source, s)
            for s in enumerate_degree(Pointing(t.source), k).points:
                a, inner = s[1]
                rest = tuple(x for x in labels if x != a) + (0,)
                assert apply_on_labels(t, inner, rest) == threading_apply_on_labels(t, inner, rest)


def test_nat_to_json_shape():
    t = identity_nat(Lin(), 1)
    doc = nat_to_json(t)
    assert doc["horizon"] == 1
    assert set(doc["components"]) == {"0", "1"}
