import io

import pytest

from espece import (
    AdjL,
    AdjLDyn,
    Cauchy,
    Cyc,
    Derive,
    DeriveDyn,
    DeriveL,
    DeriveLDyn,
    Exp,
    Lin,
    LinPlus,
    MealyAutomaton,
    MooreAutomaton,
    One,
    Perm,
    Pointing,
    PointingDyn,
    Representable,
    Subsets,
    Sum,
    TensorBy,
    TruncLeft,
    X,
    apply_dynamics,
    cardinality,
    check_mealy,
    check_moore,
    check_morphism,
    count_seq,
    hom_day_counts,
    identity_nat,
    iso_check,
    terminal_counts,
)
from espece import cli, species
from espece.errors import (
    BudgetExceeded,
    DivergentProduct,
    EnumerationTooLarge,
    InvalidExpr,
    NotSupported,
    ShapeMismatch,
)
from espece.transforms import NatTrans, build_nat
from helpers import GOLDEN_EXPRS, embedded_generator_arrays


def unique_to_exp(source, N):
    """The unique map from any species into the exponential species."""
    return build_nat(source, Exp(), N, lambda k, s: ("set", tuple(range(1, k + 1))))


# --- dynamics ---------------------------------------------------------------


def test_apply_dynamics_shapes():
    assert apply_dynamics(TensorBy(X()), Exp()) == Cauchy(X(), Exp())
    assert apply_dynamics(DeriveDyn(), Exp()) == Derive(Exp())
    assert apply_dynamics(AdjLDyn(), Lin()) == AdjL(Lin())
    assert apply_dynamics(PointingDyn(), Lin()) == Pointing(Lin())
    assert apply_dynamics(DeriveLDyn(), Lin()) == DeriveL(Lin())


def test_dynamics_counts():
    assert iso_check(apply_dynamics(DeriveDyn(), Exp()), Exp(), 4).isomorphic
    assert count_seq(apply_dynamics(AdjLDyn(), Exp()), 4).coeffs == (0, 1, 2, 3, 4)
    assert count_seq(apply_dynamics(PointingDyn(), Lin()), 3).coeffs == (0, 1, 4, 18)


# --- machine validity -------------------------------------------------------


def exp_mealy(N):
    dyn = DeriveDyn()
    d = build_nat(Derive(Exp()), Exp(), N, lambda k, s: ("set", tuple(range(1, k + 1))))
    s = build_nat(Derive(Exp()), Exp(), N, lambda k, v: ("set", tuple(range(1, k + 1))))
    return MealyAutomaton(dyn, Exp(), Exp(), d, s, N)


def test_check_mealy_valid():
    assert check_mealy(exp_mealy(3)).ok


def test_check_mealy_invalid_shape():
    m = exp_mealy(3)
    bad = MealyAutomaton(m.dynamics, Exp(), Exp(), m.d, identity_nat(Lin(), 3), 3)
    report = check_mealy(bad)
    assert not report.ok
    assert any("output map" in p for p in report.problems)


def test_check_mealy_unnatural_component():
    dyn = AdjLDyn()
    d = build_nat(AdjL(Lin()), Lin(), 2, lambda k, s: ("lin", (s[1][0],) + s[1][1][1]))
    # both degree-2 structures, (1, [2]) and (2, [1]), go to the order 1 2
    s = NatTrans(AdjL(Lin()), Lin(), 2, ((), (0,), (0, 0)))
    m = MealyAutomaton(dyn, Lin(), Lin(), d, s, 2)
    report = check_mealy(m)
    assert not report.ok
    assert any("equivariant" in p for p in report.problems)


def test_check_moore_identity_output():
    dyn = DeriveDyn()
    d = build_nat(Derive(Exp()), Exp(), 3, lambda k, s: ("set", tuple(range(1, k + 1))))
    s = identity_nat(Exp(), 3)
    m = MooreAutomaton(dyn, Exp(), Exp(), d, s, 3)
    assert check_moore(m).ok


# --- machine morphisms ------------------------------------------------------


def subsets_machine(N, insert=True):
    """Subsets with the point-choosing dynamics; output in the exponential."""
    dyn = AdjLDyn()

    def step(k, enc):
        a, inner = enc[1]
        U = inner[1]
        new = tuple(sorted(U + (a,))) if insert else U
        return ("subset", new)

    d = build_nat(AdjL(Subsets()), Subsets(), N, step)
    s = unique_to_exp(AdjL(Subsets()), N)
    return MealyAutomaton(dyn, Subsets(), Exp(), d, s, N)


def exp_adjl_machine(N):
    dyn = AdjLDyn()
    d = build_nat(AdjL(Exp()), Exp(), N, lambda k, s: ("set", tuple(range(1, k + 1))))
    s = unique_to_exp(AdjL(Exp()), N)
    return MealyAutomaton(dyn, Exp(), Exp(), d, s, N)


def test_identity_morphism():
    m = subsets_machine(2)
    assert check_morphism(identity_nat(Subsets(), 2), m, m)


def test_unique_morphism_to_terminal_carrier():
    m = subsets_machine(2)
    target = exp_adjl_machine(2)
    f = unique_to_exp(Subsets(), 2)
    assert check_morphism(f, m, target)


def test_law_violating_morphism_rejected():
    m = subsets_machine(2, insert=True)

    def complement(k, s):
        return ("subset", tuple(x for x in range(1, k + 1) if x not in s[1]))

    f = build_nat(Subsets(), Subsets(), 2, complement)
    assert not check_morphism(f, m, m)


def test_morphism_shape_mismatch():
    m = subsets_machine(2)
    other = exp_mealy(2)
    with pytest.raises(ShapeMismatch):
        check_morphism(identity_nat(Subsets(), 2), m, other)


def test_morphism_with_an_index_off_its_shape_is_refused():
    m = exp_adjl_machine(2)
    with pytest.raises(ShapeMismatch):  # E at 1 has one structure, not six
        check_morphism(NatTrans(Exp(), Exp(), 2, ((0,), (5,), (0,))), m, m)
    d = NatTrans(m.d.source, m.d.target, 2, ((), (9,), (0, 0)))
    bad = MealyAutomaton(m.dynamics, m.state, m.output, d, m.s, 2)
    for m1, m2 in ((bad, m), (m, bad)):
        with pytest.raises(ShapeMismatch):
            check_morphism(identity_nat(Exp(), 2), m1, m2)


def test_reversal_intertwines_prepend_and_append():
    # under the tensor dynamics, order reversal carries the prepend
    # machine onto the append machine
    dyn = TensorBy(X())

    def prepend(k, enc):
        _, (_, atom, order) = enc
        return ("lin", (atom[1][0],) + order[1])

    def append(k, enc):
        _, (_, atom, order) = enc
        return ("lin", order[1] + (atom[1][0],))

    out = build_nat(Cauchy(X(), Lin()), Exp(), 3, lambda k, s: ("set", tuple(range(1, k + 1))))
    m1 = MealyAutomaton(dyn, Lin(), Exp(), build_nat(Cauchy(X(), Lin()), Lin(), 3, prepend), out, 3)
    m2 = MealyAutomaton(dyn, Lin(), Exp(), build_nat(Cauchy(X(), Lin()), Lin(), 3, append), out, 3)
    assert check_mealy(m1).ok and check_mealy(m2).ok
    reverse = build_nat(Lin(), Lin(), 3, lambda k, s: ("lin", tuple(reversed(s[1]))))
    assert check_morphism(reverse, m1, m2)
    assert not check_morphism(reverse, m1, m1)


def test_complement_is_derivative_machine_endomorphism():
    # dropping the adjoined point commutes with complementation
    dyn = DeriveDyn()

    def drop_star(k, enc):
        return ("subset", tuple(x for x in enc[1][1] if x != 0))

    d = build_nat(Derive(Subsets()), Subsets(), 3, drop_star)
    s = build_nat(Derive(Subsets()), Exp(), 3, lambda k, v: ("set", tuple(range(1, k + 1))))
    m = MealyAutomaton(dyn, Subsets(), Exp(), d, s, 3)
    assert check_mealy(m).ok

    def complement(k, enc):
        return ("subset", tuple(x for x in range(1, k + 1) if x not in enc[1]))

    f = build_nat(Subsets(), Subsets(), 3, complement)
    assert check_morphism(f, m, m)


def test_complement_is_pointing_and_deriveL_machine_endomorphism():
    # a chosen label joins the subset exactly when the reserved label 0
    # is absent, so complementation commutes with the step
    def step(k, enc):
        a, (_, U) = enc[1] if enc[0] == "point" else enc[1][1]
        kept = {y for y in U if y > 0} | ({a} if a > 0 and 0 not in U else set())
        return ("subset", tuple(sorted(kept)))

    def complement(k, enc):
        return ("subset", tuple(x for x in range(1, k + 1) if x not in enc[1]))

    f = build_nat(Subsets(), Subsets(), 3, complement)
    empty = build_nat(Subsets(), Subsets(), 3, lambda k, enc: ("subset", ()))
    for dyn in (PointingDyn(), DeriveLDyn()):
        shifted = apply_dynamics(dyn, Subsets())
        d = build_nat(shifted, Subsets(), 3, step)
        m = MealyAutomaton(dyn, Subsets(), Exp(), d, unique_to_exp(shifted, 3), 3)
        assert check_mealy(m).ok
        assert check_morphism(f, m, m)
        assert not check_morphism(empty, m, m)


# --- terminal counts and hom counts ----------------------------------------


def test_terminal_adjl_representable():
    # every factor list at every degree contains an empty stage, so the
    # product collapses: the only machine over this output is empty
    y2 = Representable(2)
    t = terminal_counts(AdjLDyn(), y2, 3)
    assert t.coeffs == (0, 0, 0, 0)
    assert t == hom_day_counts(LinPlus(), y2, 3)


def test_terminal_adjl_exponential():
    assert terminal_counts(AdjLDyn(), Exp(), 5).coeffs == (1, 1, 1, 1, 1, 1)


def test_terminal_adjl_equals_hom_for_finite_outputs():
    for B in (Representable(1), Representable(2), Sum(One(), Representable(2))):
        assert terminal_counts(AdjLDyn(), B, 3) == hom_day_counts(LinPlus(), B, 3)


def test_terminal_tensor_exponential():
    t = terminal_counts(TensorBy(X()), Exp(), 3)
    assert t.coeffs == (1, 1, 1, 1)
    plus = Sum(Sum(X(), Cauchy(X(), X())), Cauchy(Cauchy(X(), X()), X()))
    assert t == hom_day_counts(plus, Exp(), 3)


def test_terminal_tensor_requires_positive_dynamics():
    with pytest.raises(InvalidExpr):
        terminal_counts(TensorBy(Exp()), Exp(), 2)


def test_terminal_tensor_finite_output():
    y2 = Representable(2)
    t = terminal_counts(TensorBy(X()), y2, 3)
    plus = Sum(Sum(X(), Cauchy(X(), X())), Cauchy(Cauchy(X(), X()), X()))
    assert t == hom_day_counts(plus, y2, 3)
    assert t.coeffs == (0, 0, 0, 0)


def test_terminal_derive_exponential():
    assert terminal_counts(DeriveDyn(), Exp(), 4).coeffs == (1, 1, 1, 1, 1)


def test_terminal_divergent():
    with pytest.raises(DivergentProduct):
        terminal_counts(AdjLDyn(), Lin(), 2)


def test_terminal_not_supported():
    with pytest.raises(NotSupported):
        terminal_counts(PointingDyn(), Exp(), 2)
    with pytest.raises(NotSupported):
        terminal_counts(DeriveLDyn(), Exp(), 2)


def test_moore_shift():
    for B in (Exp(), Representable(2)):
        mealy = terminal_counts(AdjLDyn(), B, 3)
        moore = terminal_counts(AdjLDyn(), B, 3, moore=True)
        for k in range(4):
            assert moore[k] == cardinality(B, k) * mealy[k]


def test_hom_day_unit():
    for g in (Exp(), Lin(), Subsets()):
        assert hom_day_counts(One(), g, 4) == count_seq(g, 4)


def test_hom_day_derivative_coherence():
    for g in (Exp(), Lin(), Cyc(), Subsets()):
        assert hom_day_counts(X(), g, 4) == count_seq(Derive(g), 4)


def test_hom_day_nonfree_source():
    # one subset-orbit per size must all land on fixed targets
    got = hom_day_counts(Representable(2), Subsets(), 2)
    # maps from the free two-point orbit to subsets of a (k+2)-set
    assert got.coeffs == (4, 8, 16)


def test_restricted_action_matches_embedded_words():
    from espece.automata import _restricted_action

    for g in GOLDEN_EXPRS:
        for k in range(7):
            for m in range(7 - k):
                got = _restricted_action(g, k, m)
                assert got.degree == m and got.size == cardinality(g, k + m)
                assert got.generator_images() == embedded_generator_arrays(g, k, m), (g, k, m)


def test_restricted_action_respects_embedding():
    from espece.automata import _restricted_action
    from espece.groups import Permutation

    act = _restricted_action(Subsets(), 1, 2)
    assert act.degree == 2
    moved = act.act(Permutation((2, 1)), ("subset", (1, 2)))
    assert moved == ("subset", (1, 3))   # labels 2,3 swap; label 1 is pinned


def test_products_read_each_expression_validated_once(monkeypatch):
    """terminal and homday validate each expression once and then read
    its cached counts, not once per factor: a handful of validate calls
    where there were 253 and 80, and the same output."""
    calls = []
    real = species.validate
    monkeypatch.setattr(species, "validate", lambda e: calls.append(e) or real(e))
    cases = (
        (["terminal", "--dyn", "adjL", "E", "--upto", "20"], ", ".join(["1"] * 21) + "\n"),
        (["homday", "X", "E", "--upto", "5"], "1, 1, 1, 1, 1, 1\n"),
    )
    for argv, text in cases:
        species.clear_caches()
        calls.clear()
        out = io.StringIO()
        assert cli.main(argv, out) == 0
        assert out.getvalue() == text
        assert len(calls) <= 4, (argv, len(calls))


def test_products_read_counts_only_as_far_as_their_factors():
    """A product reads counts only through the degrees its factors read.
    A Table read past its last degree raises only when a factor reads it
    there: a zero factor ends each product before the end of the short
    table, and an all-ones table is read past its end at degree 6.  A
    huge horizon fails at the first row without counting S through it."""
    short = species.as_table(TruncLeft(Exp(), 2), 5)  # counts 1, 1, 1, 0, 0, 0
    assert terminal_counts(AdjLDyn(), short, 2).coeffs == (0, 0, 0)
    assert hom_day_counts(X(), short, 2).coeffs == (1, 1, 0)
    ones = species.as_table(Exp(), 5)
    for call in (lambda: terminal_counts(AdjLDyn(), ones, 2), lambda: hom_day_counts(X(), ones, 5)):
        with pytest.raises(BudgetExceeded, match="degree 6 requested"):
            call()
    species.clear_caches()
    with pytest.raises(DivergentProduct, match="degree 0: factors still nontrivial"):
        terminal_counts(AdjLDyn(), Perm(), 50000)
    with pytest.raises(EnumerationTooLarge):
        hom_day_counts(X(), Perm(), 50000)
    assert len(species._COUNT_CACHE[Perm()]) < 100
