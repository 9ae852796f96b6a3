"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value below is either analytic, frozen from an
independent oracle computed in this file, or cross-checked between two
independent routes.
"""

import itertools
import math
import random

from espece import (
    AdjLDyn,
    AdjR,
    Cauchy,
    Cyc,
    Derive,
    DiffOperator,
    Exp,
    ExpPlus,
    Lin,
    LinPlus,
    One,
    Perm,
    Pointing,
    Representable,
    Subsets,
    Substitute,
    Sum,
    TensorBy,
    X,
    adamek_chain,
    canonical_iso_suite,
    cardinality,
    check_naturality,
    contact_at_least,
    count_nat,
    count_seq,
    egf,
    enumerate_degree,
    exp_algebra,
    hom_day_counts,
    iso_check,
    one_algebra,
    seq_substitute_egf,
    tensor_partial_algebras,
    terminal_counts,
    uniform_subset_coalgebras,
)
from espece.counting import egf_of_counts
from espece.groups import count_equivariant_maps, generators
from espece.transforms import DEFAULT_FAMILY
from helpers import GOLDEN_EXPRS, brute_equivariant_count


def _report(n, label):
    print(f"criterion {n} ({label}): pass")


def test_criterion_1_counting_tables():
    for n in range(1, 8):
        assert cardinality(Cyc(), n) == math.factorial(n - 1)
    for n in range(8):
        assert cardinality(Subsets(), n) == 2 ** n
        assert cardinality(Lin(), n) == math.factorial(n)
        assert cardinality(Perm(), n) == math.factorial(n)
    _report(1, "exact counting tables")


def test_criterion_2_canonical_isomorphisms():
    # the six named decompositions, degreewise S_k-set isomorphism at N=5
    named = (
        (Subsets(), Cauchy(Exp(), Exp())),
        (Perm(), Substitute(Exp(), Cyc())),
        (Derive(Lin()), Cauchy(Lin(), Lin())),
        (Derive(Cyc()), Lin()),
        (Derive(Exp()), Exp()),
        (Derive(Perm()), Cauchy(Perm(), Lin())),
    )
    for lhs, rhs in named:
        res = iso_check(lhs, rhs, 5)
        assert res.isomorphic, (lhs, rhs, res.witness_degree)

    # quantified families (Leibniz, chain rule, the adjoint commutations)
    # run at N=5 with per-case clamping where enumeration size demands
    report = canonical_iso_suite(5)
    assert report.passed, [e for e in report.entries if not e.passed]

    # the adjoint-power counting identity holds at every degree
    for f in DEFAULT_FAMILY:
        for n in range(6):
            expected = cardinality(f, n) ** n if n >= 1 else 1
            assert cardinality(AdjR(Derive(f)), n) == expected
    _report(2, "canonical isomorphism suite at N=5")


def test_criterion_3_equivariant_count_oracle():
    checked = 0
    for f, g in itertools.product(GOLDEN_EXPRS, repeat=2):
        for k in range(4):
            src = enumerate_degree(f, k)
            tgt = enumerate_degree(g, k)
            if len(src.points) > 8 or len(tgt.points) > 8:
                continue
            assert count_equivariant_maps(src, tgt) == brute_equivariant_count(src, tgt)
            checked += 1
    assert checked > 100
    _report(3, f"orbit-stabilizer counts match brute force on {checked} cases")


def test_criterion_4_coalgebra_counting():
    per, cumulative = count_nat(Cyc(), Derive(Cyc()), 2)
    assert per == (1, 1, 0) and cumulative == 0

    per, _ = count_nat(Lin(), Derive(Lin()), 3)
    assert any(v > 1 for v in per)

    quad = uniform_subset_coalgebras(4)
    assert len(quad) == 4
    for name, t in quad.items():
        assert check_naturality(t), name
    _report(4, "coalgebra obstruction, multiplicity, four uniform subset maps")


def test_criterion_5_terminal_objects():
    y2 = Representable(2)
    # independent oracle: the product over stages of |B[k+n]|, a zero
    # stage collapsing the whole product
    def product_formula(B, k, stages=12):
        total = 1
        for n in range(1, stages + 1):
            c = cardinality(B, k + n)
            if c == 0:
                return 0
            total *= c
        return total

    oracle = tuple(product_formula(y2, k) for k in range(4))
    assert oracle == (0, 0, 0, 0)
    got = terminal_counts(AdjLDyn(), y2, 3)
    assert got.coeffs == oracle
    assert got == hom_day_counts(LinPlus(), y2, 3)

    assert terminal_counts(AdjLDyn(), Exp(), 5).coeffs == (1,) * 6

    t = terminal_counts(TensorBy(X()), Exp(), 3)
    assert t.coeffs == (1, 1, 1, 1)
    free_semigroup = Sum(Sum(X(), Cauchy(X(), X())), Cauchy(Cauchy(X(), X()), X()))
    assert t == hom_day_counts(free_semigroup, Exp(), 3)
    _report(5, "terminal machine counts and hom equalities")


def test_criterion_6_hom_derivative_coherence():
    for g in (Exp(), Lin(), Cyc(), Subsets()):
        assert hom_day_counts(X(), g, 4) == count_seq(Derive(g), 4)
    _report(6, "hom against the unit reproduces the derivative")


def test_criterion_7_fixpoint_chains():
    # constant one at every degree: the arrangement numbers
    D1 = DiffOperator(((X(), 0),), constant=Exp())
    r1 = adamek_chain(D1, 4)
    assert r1.converged
    assert r1.limit.coeffs == (1, 2, 5, 16, 65)
    assert r1.convergence.iterations_to_converge() <= 6
    assert contact_at_least(r1.fixpoint_contact, 4)

    # unit constant: the linear-order fixpoint of G = 1 + X*G
    D1b = DiffOperator(((X(), 0),), constant=One())
    r1b = adamek_chain(D1b, 4)
    assert r1b.converged and r1b.limit.coeffs == (1, 1, 2, 6, 24)
    assert contact_at_least(r1b.fixpoint_contact, 4)

    D2 = DiffOperator(((Representable(2), 1),), constant=One())
    r2 = adamek_chain(D2, 4)
    assert r2.converged
    assert r2.limit.coeffs == (1, 0, 0, 0, 0)
    assert contact_at_least(r2.fixpoint_contact, 4)

    D3 = DiffOperator(((X(), 1),), constant=One())
    r3 = adamek_chain(D3, 4)
    assert not r3.converged
    assert r3.witness == 2
    _report(7, "fixpoint chain verdicts and certified limits")


def test_criterion_8_algebra_tensor():
    a = exp_algebra(3)
    prod = tensor_partial_algebras(a, a, 3)
    assert prod.carrier == Cauchy(Exp(), Exp())
    assert check_naturality(prod.xi)

    unit_l = tensor_partial_algebras(one_algebra(3), a, 3)
    unit_r = tensor_partial_algebras(a, one_algebra(3), 3)
    assert iso_check(unit_l.carrier, Exp(), 3).isomorphic
    assert iso_check(unit_r.carrier, Exp(), 3).isomorphic

    left = tensor_partial_algebras(prod, a, 3)
    right = tensor_partial_algebras(a, prod, 3)
    assert iso_check(left.carrier, right.carrier, 3).isomorphic
    assert check_naturality(left.xi) and check_naturality(right.xi)
    _report(8, "derivative-algebra tensor: validity, unit, associativity")


def test_criterion_9_property_suites():
    # two substitution routes on 50 seeded random pairs at N=5
    rng = random.Random(8125)
    leaves = [X(), Exp(), Lin(), Cyc(), Subsets(), Perm(), ExpPlus(), LinPlus()]
    positives = [X(), Cyc(), ExpPlus(), LinPlus(), Cauchy(X(), X()), Pointing(Exp())]

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        a, b = rand_expr(depth - 1), rand_expr(depth - 1)
        return rng.choice((Sum, Cauchy))(a, b)

    def rand_positive(depth):
        if depth == 0 or rng.random() < 0.5:
            return rng.choice(positives)
        if rng.random() < 0.5:
            return Sum(rand_positive(depth - 1), rand_positive(depth - 1))
        return Cauchy(rand_positive(depth - 1), rng.choice(leaves))

    checked = 0
    while checked < 50:
        f, g = rand_expr(2), rand_positive(2)
        if cardinality(g, 0) != 0:
            continue
        direct = egf_of_counts(count_seq(Substitute(f, g), 5))
        composed = seq_substitute_egf(egf(f, 5), egf(g, 5), 5)
        assert direct.coeffs == composed.coeffs, (f, g)
        checked += 1

    # enumeration agrees with the counting recurrences on the golden set
    for e in GOLDEN_EXPRS:
        for n in range(6):
            assert len(enumerate_degree(e, n).points) == cardinality(e, n)

    # action laws on every enumerated degree
    from espece.groups import Permutation

    for e in GOLDEN_EXPRS:
        for n in range(5):
            action = enumerate_degree(e, n)
            ident = Permutation.identity(n)
            gens = generators(n)
            for s in action.points:
                assert action.act(ident, s) == s
                for g1 in gens:
                    moved = action.act(g1, s)
                    assert moved in action.index
                    for g2 in gens:
                        assert action.act(g1, action.act(g2, s)) == action.act(
                            g1 * g2, s
                        )

    # determinism: independent recomputation reproduces every verdict
    assert count_seq(Substitute(Exp(), Cyc()), 6) == count_seq(Substitute(Exp(), Cyc()), 6)
    rep1 = canonical_iso_suite(3, names=("der_cyc", "napier"))
    rep2 = canonical_iso_suite(3, names=("der_cyc", "napier"))
    assert rep1.entries == rep2.entries
    t1 = terminal_counts(AdjLDyn(), Exp(), 4)
    t2 = terminal_counts(AdjLDyn(), Exp(), 4)
    assert t1 == t2
    _report(9, "randomized cross-checks, oracles, action laws, determinism")
