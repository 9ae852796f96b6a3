import io
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from espece import (
    AT_LEAST_HORIZON,
    NO_CONTACT,
    AdjR,
    Cauchy,
    CountSeq,
    Cyc,
    Derive,
    Exp,
    ExpPlus,
    Lin,
    LinPlus,
    Perm,
    Pointing,
    Representable,
    Subsets,
    Substitute,
    Sum,
    TruncLeft,
    X,
    Zero,
    as_table,
    cardinality,
    contact_order,
    count_seq,
    detect_convergence,
    egf,
    seq_cauchy,
    seq_derive,
    seq_substitute_egf,
    seq_sum,
)
from espece import caches, species
from espece.cli import main
from espece.counting import EgfSeq, egf_of_counts, seq_hadamard
from espece.errors import BudgetExceeded, DegreeMismatch, HorizonExhausted, InnerNotPositive
from espece.species import _substitute_counts, binomial_convolution, nonzero_entries
from helpers import (
    GOLDEN_EXPRS,
    integer_partition_substitution_count,
    reference_binomial_convolution,
    reference_detect_convergence,
    substitution_count_oracle,
)

FAMILY = (X(), Exp(), Lin(), Cyc(), Subsets())


def test_count_seq_examples():
    assert count_seq(Lin(), 5).coeffs == (1, 1, 2, 6, 24, 120)
    assert count_seq(AdjR(Exp()), 4).coeffs == (1, 1, 1, 1, 1)
    assert count_seq(Pointing(Lin()), 3).coeffs == (0, 1, 4, 18)


def test_count_seq_render():
    assert count_seq(Lin(), 4).render() == "1, 1, 2, 6, 24"


def test_count_seq_validation():
    with pytest.raises(ValueError):
        CountSeq(())
    with pytest.raises(ValueError):
        CountSeq((1, -1))


class _Count(int):
    pass


@pytest.mark.parametrize(
    "coeffs, ok",
    [
        ((1, 2, 3), True),
        ((1, -2, 3), False),
        ((-1,), False),
        ((1, 2.0), False),
        ((1.0,), False),
        ((1, True, False), True),
        ((True,), True),
        ((1, _Count(2)), True),
        ((1, _Count(-2)), False),
        ((1, "2"), False),
        ((1, None), False),
    ],
)
def test_count_seq_accepts_nonnegative_ints_only(coeffs, ok):
    if ok:
        assert CountSeq(coeffs).coeffs == coeffs
    else:
        with pytest.raises(ValueError) as err:
            CountSeq(coeffs)
        assert str(err.value) == f"counts must be nonnegative integers: {coeffs}"


def test_egf_examples():
    assert egf(Exp(), 3).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6))
    assert egf(Lin(), 3).coeffs == (1, 1, 1, 1)
    assert egf(Cyc(), 4).coeffs == (
        0,
        1,
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    )
    assert egf(Cyc(), 4).render() == "0, 1, 1/2, 1/3, 1/4"


def test_egf_derivative_coherence():
    for e in FAMILY:
        ge = egf(e, 6)
        gd = egf(Derive(e), 5)
        for n in range(5):
            assert gd[n] == (n + 1) * ge[n + 1]


def test_substitute_egf_route():
    composed = seq_substitute_egf(egf(Exp(), 4), egf(Cyc(), 4), 4)
    assert composed.coeffs == (1, 1, 1, 1, 1)


def test_substitute_egf_zero_inner():
    z = EgfSeq((Fraction(0),) * 5)
    f = egf(Lin(), 4)
    assert seq_substitute_egf(f, z, 4).coeffs == (f[0], 0, 0, 0, 0)


def test_substitute_egf_identity_inner():
    g = egf(Cyc(), 4)
    assert seq_substitute_egf(egf(X(), 4), g, 4).coeffs == g.coeffs


def test_substitute_egf_requires_positive_inner():
    with pytest.raises(InnerNotPositive):
        seq_substitute_egf(egf(Exp(), 3), egf(Exp(), 3), 3)


def test_substitution_routes_agree():
    pairs = (
        (Exp(), Cyc()),
        (Lin(), Cyc()),
        (Subsets(), X()),
        (Perm(), Cauchy(X(), X())),
        (Cyc(), LinPlus()),
    )
    for f, g in pairs:
        direct = egf_of_counts(count_seq(Substitute(f, g), 5))
        composed = seq_substitute_egf(egf(f, 5), egf(g, 5), 5)
        assert direct.coeffs == composed.coeffs, (f, g)


def test_substitution_against_set_partition_oracle():
    for f, g in ((Exp(), Cyc()), (Lin(), ExpPlus()), (Subsets(), X())):
        fc = count_seq(f, 5)
        gc = count_seq(g, 5)
        for n in range(6):
            assert cardinality(Substitute(f, g), n) == substitution_count_oracle(fc, gc, n)


def test_bell_route_against_set_partition_oracle():
    inners = [g for g in GOLDEN_EXPRS if cardinality(g, 0) == 0]
    assert len(inners) >= 5
    for f in GOLDEN_EXPRS:
        fc = count_seq(f, 8)
        for g in inners:
            gc = count_seq(g, 8)
            got = count_seq(Substitute(f, g), 8)
            for n in range(9):
                assert got[n] == substitution_count_oracle(fc, gc, n), (f, g, n)


def test_bell_route_against_integer_partition_route():
    pairs = (
        (Lin(), Cyc()),
        (Cyc(), LinPlus()),
        (Cauchy(X(), X()), ExpPlus()),
        (Subsets(), Cauchy(X(), Exp())),
        (Representable(3), Sum(X(), Representable(2))),
    )
    for f, g in pairs:
        fc, gc = count_seq(f, 20), count_seq(g, 20)
        expected = tuple(integer_partition_substitution_count(fc, gc, n) for n in range(21))
        assert count_seq(Substitute(f, g), 20).coeffs == expected, (f, g)


def test_substitution_closed_forms():
    # sets of cycles are permutations; sets of nonempty sets are set partitions
    assert count_seq(Substitute(Exp(), Cyc()), 300).coeffs == tuple(
        math.factorial(n) for n in range(301)
    )
    bell = [1]
    for n in range(40):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    assert count_seq(Substitute(Exp(), ExpPlus()), 40).coeffs == tuple(bell)


def test_substitution_table_budget_matches_partition_route():
    # the integer-partition route indexes the table's counts only where it
    # consults them, so an IndexError marks a degree the table lacks
    table = as_table(Cyc(), 3)
    table_counts = tuple(cardinality(table, n) for n in range(4))
    outers = (
        Exp(),
        Lin(),
        Cyc(),
        Perm(),
        Subsets(),
        ExpPlus(),
        LinPlus(),
        X(),
        Zero(),
        Cauchy(X(), X()),
        Representable(3),
        TruncLeft(Exp(), 1),
        Sum(Representable(2), Representable(4)),
    )
    raised = set()
    for f in outers:
        fc = count_seq(f, 8)
        for n in range(9):
            try:
                expected = integer_partition_substitution_count(fc, table_counts, n)
            except IndexError:
                raised.add((f, n))
                with pytest.raises(BudgetExceeded):
                    cardinality(Substitute(f, table), n)
            else:
                assert cardinality(Substitute(f, table), n) == expected, (f, n)
    assert (Exp(), 4) in raised and (Cauchy(X(), X()), 4) not in raised


# The outers that count f o g from their differential equation, and inners:
# every positive GOLDEN_EXPRS entry plus three whose g_1 or g_2 is not 1.
ODE_OUTERS = (Exp(), Subsets(), Lin(), Perm(), Cyc(), ExpPlus(), LinPlus())


def _ode_inners():
    extras = (Sum(Cyc(), X()), Sum(X(), Cauchy(X(), X())), Cauchy(Derive(Cyc()), X()))
    return [g for g in GOLDEN_EXPRS if cardinality(g, 0) == 0] + list(extras)


def test_ode_route_matches_bell_and_partition_routes():
    # The partition oracle sums over p(n) partitions (p(60) = 966467), so
    # it runs to degree 20 and the Bell route carries the check to 60.
    N, M = 60, 20
    for f in ODE_OUTERS:
        fc = count_seq(f, N).coeffs
        for g in _ode_inners():
            gc = count_seq(g, N).coeffs
            species.clear_caches()
            got = count_seq(Substitute(f, g), N).coeffs
            assert caches.report()["Bell rows"] == (0, 0), (f, g)
            assert got == tuple(_substitute_counts(g, fc, gc, 0, N + 1)), (f, g)
            expected = tuple(integer_partition_substitution_count(fc, gc, n) for n in range(M + 1))
            assert got[: M + 1] == expected, (f, g)
    species.clear_caches()


def test_ode_route_extends_from_its_own_counts(monkeypatch):
    # degree by degree reads the cached prefix: the same binomials as one
    # extension to N, none recomputed
    binomials = []

    def comb(n, k):
        binomials.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(species, "math", SimpleNamespace(**{**vars(math), "comb": comb}))
    N = 30
    for f in ODE_OUTERS:
        for g in (X(), Cyc(), Sum(X(), Cauchy(X(), X()))):
            e = Substitute(f, g)
            species.clear_caches()
            count_seq(g, N)
            binomials.clear()
            whole = count_seq(e, N).coeffs
            once = len(binomials)
            species.clear_caches()
            count_seq(g, N)
            binomials.clear()
            assert tuple(cardinality(e, n) for n in range(N + 1)) == whole, (f, g)
            assert len(binomials) == once, (f, g)
    species.clear_caches()


def test_large_substitution_fills_no_bell_row():
    species.clear_caches()
    code = main(["coeffs", "E o C", "--upto", "300"], io.StringIO())
    assert code == 0 and caches.report()["Bell rows"] == (0, 0)
    species.clear_caches()


def test_leibniz_rule_at_counting_level():
    for f, g in itertools.product(FAMILY, repeat=2):
        lhs = count_seq(Derive(Cauchy(f, g)), 5)
        rhs = count_seq(Sum(Cauchy(Derive(f), g), Cauchy(f, Derive(g))), 5)
        assert lhs == rhs, (f, g)


def test_chain_rule_at_counting_level():
    for f in FAMILY:
        for g in (X(), Cyc()):
            lhs = count_seq(Derive(Substitute(f, g)), 5)
            rhs = count_seq(Cauchy(Substitute(Derive(f), g), Derive(g)), 5)
            assert lhs == rhs, (f, g)


def test_euler_numbering():
    for f in FAMILY:
        fs = count_seq(f, 6)
        ps = count_seq(Pointing(f), 6)
        for n in range(7):
            assert ps[n] == n * fs[n]


def test_binomial_convolution_properties():
    rng = random.Random(7)
    seqs = [
        CountSeq(tuple(rng.randrange(0, 9) for _ in range(6))) for _ in range(4)
    ]
    for a, b in itertools.product(seqs, repeat=2):
        assert seq_cauchy(a, b) == seq_cauchy(b, a)
    for a, b, c in itertools.islice(itertools.product(seqs, repeat=3), 20):
        assert seq_cauchy(seq_cauchy(a, b), c) == seq_cauchy(a, seq_cauchy(b, c))


def _sparse_sequence(rng, length):
    """Entries 0 in runs, 1, small or large, so that both branches of the
    convolution and the k = 0, k = 1 and a_k = 1 columns all occur."""
    out = []
    while len(out) < length:
        kind = rng.randrange(4)
        if kind == 0:
            out += [0] * rng.randrange(1, 6)
        elif kind == 1:
            out.append(1)
        elif kind == 2:
            out.append(rng.randrange(2, 9))
        else:
            out.append(rng.randrange(10**30))
    return tuple(out[:length])


def test_binomial_convolution_matches_the_per_degree_oracle():
    rng = random.Random(25)
    length = 24
    seqs = [_sparse_sequence(rng, length) for _ in range(40)]
    seqs += [(0,) * length, (1,) * length, (0,) * (length - 1) + (3,), (5,) + (0,) * (length - 1)]
    for a in seqs:
        entries = nonzero_entries(a)
        assert entries == [(k, v) for k, v in enumerate(a) if v]
        last_k = entries[-1][0] if entries else 0
        b = rng.choice(seqs)
        ranges = [(0, length), (0, 0), (length, length), (3, 3), (7, 8), (0, 1)]
        ranges += [(min(last_k + 1, length), length), (length - 1, length)]
        for _ in range(6):
            start = rng.randrange(length + 1)
            ranges.append((start, rng.randrange(start, length + 1)))
        for start, stop in ranges:
            expected = reference_binomial_convolution(a, b, start, stop)
            assert binomial_convolution(a, b, start, stop) == expected, (a, b, start, stop)
            # nonzero entries read once, past stop too, as the fixpoint chain passes them
            assert binomial_convolution(a, b, start, stop, entries) == expected, (a, b, start, stop)


def _runs_of_iterates(rng):
    """Iterate runs that repeat one object, repeat equal but distinct
    tuples, and change a few degrees at a time."""
    for _ in range(60):
        width = rng.randrange(1, 8)
        row = tuple(rng.randrange(3) for _ in range(width))
        seqs = [CountSeq(row)]
        for _ in range(rng.randrange(8)):
            kind = rng.randrange(3)
            if kind == 0:
                seqs.append(seqs[-1])
            elif kind == 1:
                seqs.append(CountSeq(tuple(list(seqs[-1].coeffs))))
            else:
                row = list(seqs[-1].coeffs)
                for _ in range(rng.randrange(1, 3)):
                    row[rng.randrange(width)] = rng.randrange(3)
                seqs.append(CountSeq(tuple(row)))
        yield seqs


def test_detect_convergence_matches_the_walk_back_oracle():
    rng = random.Random(2025)
    for seqs in _runs_of_iterates(rng):
        for N in range(seqs[0].horizon + 1):
            report = detect_convergence(seqs, N)
            assert report == reference_detect_convergence(seqs, N), ([s.coeffs for s in seqs], N)
            assert report.converged == (report.witness is None)


def test_detect_convergence_errors_are_pinned():
    with pytest.raises(ValueError, match="need at least one sequence"):
        detect_convergence([], 0)
    with pytest.raises(ValueError, match="need at least one sequence"):
        detect_convergence(iter(()), 3)
    short = [CountSeq((1, 1, 1)), CountSeq((1, 1)), CountSeq((1,))]
    with pytest.raises(DegreeMismatch, match=r"^horizon 1 < 2$"):
        detect_convergence(short, 2)
    for N in range(4):
        report = detect_convergence([CountSeq((1, 2, 3, 4))], N)
        assert report.stable_from == (None,) * (N + 1)
        assert (report.converged, report.limit, report.witness) == (False, None, 0)


def test_seq_ops_match_expression_ops():
    a, b = Lin(), Cyc()
    ca, cb = count_seq(a, 6), count_seq(b, 6)
    assert seq_sum(ca, cb) == count_seq(Sum(a, b), 6)
    assert seq_cauchy(ca, cb) == count_seq(Cauchy(a, b), 6)
    assert seq_hadamard(ca, cb).coeffs == tuple(ca[n] * cb[n] for n in range(7))
    assert seq_derive(ca) == count_seq(Derive(a), 5)


def test_horizon_semantics():
    c = count_seq(Lin(), 3)
    assert seq_derive(c).horizon == 2
    with pytest.raises(HorizonExhausted):
        c[4]
    with pytest.raises(HorizonExhausted):
        c.truncate(9)


def test_contact_order():
    a = count_seq(Lin(), 5)
    assert contact_order(a, a) == AT_LEAST_HORIZON
    assert contact_order(count_seq(Perm(), 5), count_seq(Lin(), 5)) == AT_LEAST_HORIZON
    assert contact_order(CountSeq((1, 1, 2)), CountSeq((1, 1, 3))) == 1
    assert contact_order(CountSeq((1, 1)), CountSeq((2, 1))) == NO_CONTACT


def test_detect_convergence_constant():
    seqs = [CountSeq((1, 2, 3))] * 4
    report = detect_convergence(seqs, 2)
    assert report.converged
    assert report.stable_from == (0, 0, 0)
    assert report.limit == CountSeq((1, 2, 3))


def test_detect_convergence_affine_fixpoint():
    # iterate g <- [1 at every degree] + n*g_{n-1} starting from all-ones
    seqs = [CountSeq((1,) * 5)]
    for _ in range(8):
        prev = seqs[-1]
        seqs.append(
            CountSeq(tuple(1 + (n * prev[n - 1] if n else 0) for n in range(5)))
        )
    report = detect_convergence(seqs, 4)
    assert report.converged
    assert report.limit == CountSeq((1, 2, 5, 16, 65))


def test_detect_convergence_unstable():
    # degree >= 2 doubles forever
    seqs = [CountSeq((1, 1, 1))]
    for _ in range(6):
        prev = seqs[-1]
        seqs.append(CountSeq((1, 1, 2 * prev[2])))
    report = detect_convergence(seqs, 2)
    assert not report.converged
    assert report.witness == 2
    assert report.stable_from[0] == 0 and report.stable_from[1] == 0
    assert report.stable_from[2] is None


def test_detect_convergence_single_iterate_certifies_nothing():
    # no step was taken, so no degree has shown it is stable
    report = detect_convergence([CountSeq((1, 1, 1))], 2)
    assert not report.converged
    assert report.stable_from == (None, None, None)
    assert (report.limit, report.witness) == (None, 0)
    assert report.iterations_to_converge() is None


def test_randomized_substitution_cross_check():
    rng = random.Random(20240917)
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
        kind = rng.random()
        if kind < 0.5:
            return Sum(rand_positive(depth - 1), rand_positive(depth - 1))
        return Cauchy(rand_positive(depth - 1), rng.choice(leaves))

    checked = 0
    while checked < 50:
        f = rand_expr(2)
        g = rand_positive(2)
        if cardinality(g, 0) != 0:
            continue
        direct = egf_of_counts(count_seq(Substitute(f, g), 5))
        composed = seq_substitute_egf(egf(f, 5), egf(g, 5), 5)
        assert direct.coeffs == composed.coeffs, (f, g)
        checked += 1


def test_engine_sequences_skip_the_entry_check(monkeypatch):
    """Counts and the fixpoint chain's iterates are ints by construction and
    are not checked again; a caller's sequence still is."""
    from espece import adamek_chain
    from espece.cli import parse_operator

    def checked(self, coeffs):
        raise AssertionError("an engine-made sequence was checked entry by entry")

    caches.clear()  # so the chain below is computed, not remembered
    monkeypatch.setattr(CountSeq, "__init__", checked)
    assert count_seq(Lin(), 5).coeffs == (1, 1, 2, 6, 24, 120)
    report = adamek_chain(parse_operator("1:0 + X:0"), 6)  # L = 1 + X.L
    assert report.converged and report.limit.coeffs == (1, 1, 2, 6, 24, 120, 720)
    assert all(type(s) is CountSeq for s in report.iterates)
    assert count_seq(Lin(), 5).truncate(2) == count_seq(Lin(), 2)
    out = io.StringIO()
    assert main(["solve", "--op", "X:1 + 1:0", "--upto", "3"], out) == 0
    assert main(["coeffs", "L", "--upto", "3"], out) == 0


def test_caller_sequences_keep_the_entry_check(monkeypatch, capsys):
    for bad in ((1, -1), (1, 2.0), (1, True, "3")):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            CountSeq(bad)
    with pytest.raises(ValueError, match="at least the degree-0 entry"):
        CountSeq.computed(())
    checks = []
    real = CountSeq.__init__

    def counted(self, coeffs):
        checks.append(coeffs)
        real(self, coeffs)

    monkeypatch.setattr(CountSeq, "__init__", counted)
    argv = ["fixcheck", "--op", "1:0 + X:0", "--seq", "1,1,2,6", "--upto", "2"]
    assert main(argv, io.StringIO()) == 0
    assert checks == [(1, 1, 2, 6)]  # the --seq sequence, and only it
