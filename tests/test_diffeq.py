import io
import random
import tracemalloc

import pytest
from helpers import stepwise_adamek_chain

from espece import (
    AT_LEAST_HORIZON,
    Cauchy,
    CountSeq,
    Cyc,
    DiffOperator,
    Exp,
    ExpPlus,
    Lin,
    One,
    Representable,
    Sum,
    X,
    adamek_chain,
    apply_operator,
    contact_at_least,
    count_seq,
    fixpoint_check,
    seq_sum,
)
from espece.cli import main
from espece.errors import HorizonExhausted, InvalidExpr

ONES = CountSeq((1,) * 9)


def test_identity_operator():
    D = DiffOperator(((One(), 0),))
    assert apply_operator(D, ONES) == ONES
    x = count_seq(Lin(), 6)
    assert apply_operator(D, x) == x


def test_euler_operator_on_ones():
    D = DiffOperator(((X(), 1),))
    out = apply_operator(D, ONES)
    assert out.coeffs == (0, 1, 2, 3, 4, 5, 6, 7)


def test_affine_operator_on_ones():
    D = DiffOperator(((X(), 0),), constant=Exp())
    out = apply_operator(D, ONES)
    assert out.coeffs == (1, 2, 3, 4, 5, 6, 7, 8, 9)


def test_apply_operator_horizon_shrink():
    D = DiffOperator(((One(), 2),))
    x = CountSeq((1, 2, 3, 4))
    assert apply_operator(D, x).coeffs == (3, 4)
    with pytest.raises(HorizonExhausted):
        apply_operator(D, CountSeq((1,)))


def test_operator_validates_coefficients():
    from espece.species import Substitute

    D = DiffOperator(((Substitute(Exp(), Exp()), 0),))
    with pytest.raises(InvalidExpr):
        apply_operator(D, ONES)


def test_operator_needs_content():
    with pytest.raises(ValueError):
        DiffOperator(())
    with pytest.raises(ValueError):
        DiffOperator(((One(), -1),))


def test_linear_part_is_additive():
    rng = random.Random(3)
    D = DiffOperator(((X(), 1), (Representable(2), 0), (One(), 0)))
    for _ in range(10):
        a = CountSeq(tuple(rng.randrange(0, 20) for _ in range(7)))
        b = CountSeq(tuple(rng.randrange(0, 20) for _ in range(7)))
        lhs = apply_operator(D, seq_sum(a, b))
        rhs = seq_sum(apply_operator(D, a), apply_operator(D, b))
        assert lhs == rhs


# --- fixpoint chains --------------------------------------------------------


def test_chain_affine_all_ones_constant():
    D = DiffOperator(((X(), 0),), constant=Exp())
    report = adamek_chain(D, 4)
    assert report.converged
    assert report.limit.coeffs == (1, 2, 5, 16, 65)
    assert report.convergence.iterations_to_converge() <= 6
    assert contact_at_least(report.fixpoint_contact, 4)


def test_chain_affine_unit_constant():
    # the unit constant gives the linear-order fixpoint: G = 1 + X*G
    D = DiffOperator(((X(), 0),), constant=One())
    report = adamek_chain(D, 4)
    assert report.converged
    assert report.limit.coeffs == (1, 1, 2, 6, 24)


def test_chain_derivative_annihilation():
    D = DiffOperator(((Representable(2), 1),), constant=One())
    report = adamek_chain(D, 4)
    assert report.converged
    assert report.limit.coeffs == (1, 0, 0, 0, 0)
    assert contact_at_least(report.fixpoint_contact, 4)


def test_chain_diverges_at_degree_two():
    D = DiffOperator(((X(), 1),), constant=One())
    report = adamek_chain(D, 4)
    assert not report.converged
    assert report.witness == 2
    assert report.convergence.stable_from[0] == 0
    assert report.convergence.stable_from[1] is not None


def test_chain_zero_order_positive_coefficients_settle_fast():
    # order-zero operators whose non-constant coefficients vanish at
    # degree 0 pin one further degree per iteration
    cases = (
        DiffOperator(((X(), 0),), constant=One()),
        DiffOperator(((X(), 0),), constant=Exp()),
        DiffOperator(((Representable(2), 0),), constant=Exp()),
    )
    for D in cases:
        report = adamek_chain(D, 5)
        assert report.converged
        for k, idx in enumerate(report.convergence.stable_from):
            assert idx <= k + 1, (D, k, idx)


def test_chain_iterates_recorded():
    D = DiffOperator(((X(), 0),), constant=Exp())
    report = adamek_chain(D, 3, max_iter=4)
    assert len(report.iterates) == 5
    assert report.iterates[0].coeffs == (1, 1, 1, 1)
    assert report.iterates[1].coeffs == (1, 2, 3, 4)
    # a derivative term starts the chain beyond N; the report keeps degrees 0..N
    report = adamek_chain(DiffOperator(((X(), 1),), One()), 3, max_iter=4)
    assert [s.horizon for s in report.iterates] == [3] * 5


def test_fixpoint_check_examples():
    derive = DiffOperator(((One(), 1),))
    assert fixpoint_check(derive, ONES, 4) == AT_LEAST_HORIZON

    # the all-ones constant already disagrees with all-ones at degree 1
    affine_ones = DiffOperator(((X(), 0),), constant=Exp())
    assert fixpoint_check(affine_ones, ONES, 4) == 0

    affine_unit = DiffOperator(((X(), 0),), constant=One())
    assert fixpoint_check(affine_unit, ONES, 4) == 1
    lin_limit = count_seq(Lin(), 5)
    assert contact_at_least(fixpoint_check(affine_unit, lin_limit, 4), 4)


def test_fixpoint_check_horizon_guard():
    derive = DiffOperator(((One(), 1),))
    with pytest.raises(HorizonExhausted):
        fixpoint_check(derive, CountSeq((1, 1, 1)), 3)


def test_exponential_solves_derivative_equation():
    derive = DiffOperator(((One(), 1),))
    ones = count_seq(Exp(), 8)
    assert fixpoint_check(derive, ones, 6) == AT_LEAST_HORIZON


def test_cycle_counts_solve_euler_style_equation():
    # pointed cycles are the nonempty orders: n * c_n = n! for n >= 1
    from espece import LinPlus

    pointed = DiffOperator(((X(), 1),))
    cycles = count_seq(Cyc(), 7)
    assert apply_operator(pointed, cycles) == count_seq(LinPlus(), 6)


# --- the incremental chain against the stepwise route ------------------------

COEFFS = (
    X(),
    Cauchy(X(), X()),
    Exp(),
    ExpPlus(),
    Lin(),
    Cyc(),
    Representable(2),
    Sum(X(), Exp()),
    Sum(Cauchy(X(), X()), Cyc()),
    Sum(Lin(), Representable(2)),
)
MIXED_TERMS = (
    ((X(), 0), (Exp(), 1)),
    ((Cyc(), 2), (Cauchy(X(), X()), 0)),
    ((Lin(), 3), (Representable(2), 1)),
    ((ExpPlus(), 1), (X(), 1), (Sum(X(), Exp()), 0)),
)
GRID_OPERATORS = tuple(
    DiffOperator(terms, constant)
    for terms in tuple(((a, order),) for a in COEFFS for order in range(4)) + MIXED_TERMS
    for constant in (None, One(), Exp())
)


@pytest.mark.parametrize("D", GRID_OPERATORS, ids=repr)
def test_chain_matches_stepwise_route(D):
    for N in range(13):
        for max_iter in (None, 0, 1, 3, 17):
            expected = stepwise_adamek_chain(D, N, max_iter)
            assert adamek_chain(D, N, max_iter) == expected, (N, max_iter)


def test_long_chain_memory_is_bounded():
    # "1:1" keeps the all-ones iterate: every step after the first is a
    # stable one, and the full-horizon route held max_iter + 1 iterates of
    # about max_iter entries each (a 35 MiB traced peak at max_iter 3000)
    D = DiffOperator(((One(), 1),))
    tracemalloc.start()
    try:
        report = adamek_chain(D, 5, max_iter=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.limit.coeffs == (1,) * 6
    assert len(report.iterates) == 3001
    assert peak < 2 * 2**20, peak


def test_long_chain_cli_text_matches_stepwise_route():
    D = DiffOperator(((One(), 1),))
    report = stepwise_adamek_chain(D, 5, 3000)
    lines = [f"iterate {i}: {s.render()}" for i, s in enumerate(report.iterates)]
    lines += [f"Converged: {report.limit.render()}", f"fixpoint contact: {report.fixpoint_contact}"]
    out = io.StringIO()
    assert main(["solve", "--op", "1:1", "--upto", "5", "--max-iter", "3000"], out) == 0
    assert out.getvalue() == "\n".join(lines) + "\n"
