import itertools

import pytest

from espece import (
    AT_LEAST_HORIZON,
    AdjLDyn,
    AdjR,
    Cauchy,
    Cyc,
    Derive,
    DeriveDyn,
    DeriveLDyn,
    Exp,
    Lin,
    Perm,
    Pointing,
    PointingDyn,
    Subsets,
    Substitute,
    TensorBy,
    X,
    as_table,
    canonical_iso_suite,
    cardinality,
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
from espece import species, transforms
from espece.errors import BudgetExceeded, InvalidAlgebra, ShapeMismatch, TooManyMaps
from espece.transforms import NatTrans, PartialAlgebra, build_nat, exp_mu, nat_to_json
from helpers import (
    brute_equivariant_count,
    label_route_image,
    label_route_tensor,
    structure_check_monoid,
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
    # both orders on 1 2 go to the order 1 2
    t = NatTrans(Lin(), Lin(), 2, ((0,), (0,), (0, 0)))
    assert not check_naturality(t)


def test_partial_component_fails():
    assert check_naturality(NatTrans(Lin(), Lin(), 1, ((0,), (0,))))
    for comps in (
        ((), ()),  # short: L has one structure at each of degrees 0 and 1
        ((0,), (1,)),  # out of range
        ((0,), (-1,)),
        ((0,),),  # no component at degree 1
    ):
        assert not check_naturality(NatTrans(Lin(), Lin(), 1, comps)), comps


def test_build_nat_rejects_an_image_off_the_target():
    with pytest.raises(ShapeMismatch, match="not a degree-2 structure of Lin"):
        build_nat(Lin(), Lin(), 2, lambda k, s: ("lin", s[1] + (9,)) if k == 2 else s)
    with pytest.raises(ShapeMismatch):
        build_nat(Lin(), Exp(), 1, lambda k, s: s)


def test_components_are_hashable_index_tuples():
    mu = lin_concat_mu(3)
    assert hash(mu) == hash(lin_concat_mu(3))
    # the pairs in blocks (), (1,), (1, 2), (2,); L's orders 1 2 and 2 1
    assert mu.components[2] == (0, 1, 0, 0, 1, 1)
    assert mu(2, ("pair", ((2,), ("lin", (2,)), ("lin", (1,))))) == ("lin", (2, 1))
    with pytest.raises(ShapeMismatch):
        mu(2, ("lin", (1, 2)))
    with pytest.raises(ShapeMismatch):
        mu(4, ("pair", ((), ("lin", ()), ("lin", (1, 2, 3, 4)))))


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


def _stepwise_horizon(exprs, N):
    """The reference scan: every side at one degree, then the next."""
    for k in range(N + 1):
        for e in exprs:
            if cardinality(e, k) > transforms.ISO_POINT_CAP:
                return k - 1
    return N


def _horizon_or_error(scan, exprs, N):
    try:
        return scan(exprs, N)
    except BudgetExceeded as exc:
        return str(exc)


def test_feasible_horizon_reads_as_the_stepwise_scan(monkeypatch):
    """Sides that read a Table past its last degree: the horizon, or the
    degree whose read raises, is the stepwise scan's, which stops at the
    first degree over the cap before it reads deeper."""
    monkeypatch.setattr(transforms, "ISO_POINT_CAP", 10)
    t = as_table(Exp(), 3, "t")
    sides = (Perm(), t, Derive(t), Cauchy(t, X()), Lin(), X(), Cauchy(Exp(), Exp()))
    for N in range(7):
        for pair in itertools.product(sides, sides):
            want = _horizon_or_error(_stepwise_horizon, pair, N)
            assert _horizon_or_error(transforms._feasible_horizon, pair, N) == want, (pair, N)
    # S has 24 > 10 structures at degree 4, read before t at degree 4
    assert transforms._feasible_horizon((Perm(), t), 6) == 3
    with pytest.raises(BudgetExceeded, match="degree 4 requested"):
        transforms._feasible_horizon((t, Perm()), 6)


def test_suite_clamps_before_a_table_runs_out(monkeypatch):
    # every side counts 2^(n+1) at degree n, past the cap from degree 3; a
    # side with t reads t at n + 1, and t holds degrees 0..4, so the scan
    # stops at 3 before it reads t at 5, which a read through N = 4 would
    monkeypatch.setattr(transforms, "ISO_POINT_CAP", 10)
    species.clear_caches()
    t = as_table(Exp(), 4, "t")
    rep = canonical_iso_suite(4, names=("leibniz",), family=(Exp(), t))
    assert rep.passed and [e.horizon for e in rep.entries] == [2, 2, 2, 2]
    species.clear_caches()


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
    real = species.structures_on

    def refuse(e, labels):
        # leaves list their structures to compile their arrays
        assert not e.children, "the laws and the tensor work on point indices only"
        return real(e, labels)

    mu, a = lin_concat_mu(4), exp_algebra(4)
    species.clear_caches()
    monkeypatch.setattr(species, "structures_on", refuse)
    assert check_monoid(Lin(), mu, ("lin", ()), 4).ok
    assert check_naturality(tensor_partial_algebras(a, a, 4).xi)
    species.clear_caches()


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


def _with_component(mu, k, c):
    """mu with its degree-k component replaced by c."""
    comps = mu.components
    return NatTrans(mu.source, mu.target, mu.horizon, comps[:k] + (c,) + comps[k + 1 :])


@pytest.mark.parametrize("k", range(4))
def test_malformed_multiplication_raises_up_front(k):
    mu = lin_concat_mu(3)
    c = mu.components[k]
    off_l = len(enumerate_degree(Lin(), k).points)  # an index past L's structures
    # the last pair's image missing; the first or the last pair sent off L
    for bad in (c[:-1], (off_l,) + c[1:], c[:-1] + (off_l,)):
        with pytest.raises(ShapeMismatch):
            check_monoid(Lin(), _with_component(mu, k, bad), ("lin", ()), 3)
        with pytest.raises(ShapeMismatch):
            structure_check_monoid(Lin(), _with_component(mu, k, bad), ("lin", ()), 3)


def test_malformed_multiplication_raises_although_laws_fail_first():
    # the index route checks every component before any law; the structure
    # route fails its unit and associativity laws first, then meets the
    # image off L in the shuffles' split and raises as well
    _, make, eta = MONOID_CASES["L reversed concatenation"]
    mu = make(3)
    key = ("pair", ((1,), ("lin", (1,)), ("lin", (2, 3))))
    i = enumerate_degree(Cauchy(Lin(), Lin()), 3).index[key]
    c = mu.components[3]
    bad = _with_component(mu, 3, c[:i] + (6,) + c[i + 1 :])  # L has 6 orders at degree 3
    with pytest.raises(ShapeMismatch):
        check_monoid(Lin(), bad, eta, 3)
    with pytest.raises(ShapeMismatch):
        structure_check_monoid(Lin(), bad, eta, 3)


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


def _drop_label(tag, star):
    """The structure map D(F) -> F of an order-like species that deletes the
    reserved label ``star``."""
    if tag == "deriv":
        return lambda k, s: ("deriv", ("lin", tuple(x for x in s[1][1][1] if x != star)))
    return lambda k, s: (tag, tuple(x for x in s[1][1] if x != star))


def _algebras(N):
    yield exp_algebra(N)
    yield one_algebra(N)
    yield PartialAlgebra(Lin(), build_nat(Derive(Lin()), Lin(), N, _drop_label("lin", 0)))
    drop = _drop_label("subset", 0)
    yield PartialAlgebra(Subsets(), build_nat(Derive(Subsets()), Subsets(), N, drop))
    dl = Derive(Lin())  # its structures hold the reserved label 0 already
    yield PartialAlgebra(dl, build_nat(Derive(dl), dl, N, _drop_label("deriv", -1)))


def test_tensor_nontrivial_algebras():
    # delete-the-adjoined-point structure maps on orders and on subsets
    _, _, lin_alg, sub_alg, _ = _algebras(3)
    assert check_naturality(lin_alg.xi)
    assert check_naturality(sub_alg.xi)
    for a, b in ((lin_alg, lin_alg), (lin_alg, sub_alg), (sub_alg, exp_algebra(3))):
        prod = tensor_partial_algebras(a, b, 3)  # validates naturality itself
        assert prod.carrier == Cauchy(a.carrier, b.carrier)
        for k in range(4):
            comp = prod.xi.components[k]
            assert len(comp) == len(enumerate_degree(Derive(prod.carrier), k).points)


def test_tensor_rejects_bad_algebra():
    # every structure to the order 1..k, the first of L's structures
    constant = tuple((0,) * enumerate_degree(Derive(Lin()), k).size for k in range(3))
    short = ((0,), (0,), (0,))
    off_l = ((0,), (0, 1), (0, 1, 0, 1, 0, 2))  # index 2 is past L's two orders
    for comps in (constant, short, off_l):
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
    assert len({t.components[1] for t in quad.values()}) == 4


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
    yield from uniform_subset_coalgebras(N).values()  # S -> D(S): the sizes differ


DYNAMICS = {
    "tensor by X": TensorBy(X()),
    "tensor by S": TensorBy(Subsets()),
    "derive": DeriveDyn(),
    "adjL": AdjLDyn(),
    "pointing": PointingDyn(),
    "deriveL": DeriveLDyn(),
}


@pytest.mark.parametrize("route", [*DYNAMICS, "algebra tensor"])
def test_index_routes_match_the_label_route(route):
    # each transformation moved on label sets holding reserved labels, as
    # under the derivative, pointing and derivative-of-adjoint dynamics
    if route == "algebra tensor":
        for a, b in itertools.product(list(_algebras(3)), repeat=2):
            got = tensor_partial_algebras(a, b, 3).xi.components
            assert got == label_route_tensor(a, b, 3), (a.carrier, b.carrier)
        return
    dyn = DYNAMICS[route]
    for t in _nats_with_derivative_contexts(4):
        assert check_naturality(t)
        for k in range(4):
            assert dyn.image(t, k) == label_route_image(dyn, t, k), (t.source, k)


def test_nat_to_json_shape():
    t = identity_nat(Lin(), 1)
    doc = nat_to_json(t)
    assert doc["horizon"] == 1
    assert set(doc["components"]) == {"0", "1"}
