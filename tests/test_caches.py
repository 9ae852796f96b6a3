"""The cache owner: remembered queries, failures computed afresh, the cap."""

import io
import itertools
import traceback

import pytest

from espece import (
    Cauchy,
    Cyc,
    DeriveDyn,
    Exp,
    Lin,
    One,
    Perm,
    PointingDyn,
    Subsets,
    Substitute,
    TensorBy,
    X,
    adamek_chain,
    canonical_iso_suite,
    count_nat,
    hom_day_counts,
    iso_check,
    terminal_counts,
)
from espece import caches, species, transforms
from espece.cli import main, parse_expr, parse_operator
from espece.errors import DegreeTooLarge, NotSupported, ParseError


def run(argv):
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


# Each remembered query with one call, and one CLI request that reaches it.
QUERIES = (
    (parse_expr, ("E o C * L",), ("coeffs", "E o C * L", "--upto", "6")),
    (parse_operator, ("E + X:0",), ("solve", "--op", "E + X:0", "--upto", "12")),
    (iso_check, (Cauchy(Lin(), Lin()), Lin(), 4), ("iso", "D(L)", "L*L", "--upto", "5")),
    (count_nat, (Cauchy(Exp(), Exp()), Subsets(), 4), ("natcount", "E*E", "P", "--upto", "5")),
    (canonical_iso_suite, (4,), ("suite", "--name", "perm_decomp", "--upto", "5")),
    (adamek_chain, (parse_operator("1:0 + X:0"), 8), ("solve", "--op", "1:0 + X:0", "--upto", "9")),
    (terminal_counts, (TensorBy(X()), Exp(), 3), ("terminal", "--dyn", "tensor", "--by", "X", "E")),
    (hom_day_counts, (X(), Lin(), 4), ("homday", "X", "L", "--upto", "4")),
    (
        transforms.check_monoid,
        (Lin(), transforms.lin_concat_mu(5), ("lin", ()), 5),
        ("monoid", "lin", "--upto", "5", "--json"),
    ),
    (transforms.lin_concat_mu, (5,), ("monoid", "lin", "--upto", "5", "--json")),
    (transforms.exp_mu, (4,), ("monoid", "exp", "--upto", "4")),
    (
        transforms.tensor_partial_algebras,
        (transforms.exp_algebra(4), transforms.exp_algebra(4), 4),
        ("algtensor", "--upto", "4", "--json"),
    ),
    (transforms.exp_algebra, (4,), ("algtensor", "--upto", "4", "--json")),
    (transforms.one_algebra, (3,), ("algtensor", "--upto", "3")),
)


@pytest.mark.parametrize("query, args, argv", QUERIES, ids=lambda q: getattr(q, "__name__", ""))
def test_remembered_queries_repeat_equal(query, args, argv):
    species.clear_caches()
    first = query(*args)
    assert query(*args) is first  # the repeat is the remembered answer
    species.clear_caches()
    assert query(*args) == first
    species.clear_caches()
    cold = run(argv)
    assert cold[0] == 0 and run(argv) == cold
    species.clear_caches()
    assert run(argv) == cold


def test_every_query_the_cli_dispatches_is_remembered():
    names = {f"{q.__module__.rpartition('.')[2]}.{q.__name__}" for q, _, _ in QUERIES}
    assert names <= set(caches.report())
    for query, _, _ in QUERIES:
        assert query.__wrapped__.__name__ == query.__name__


@pytest.mark.parametrize(
    "argv",
    [("iso", "D(L)", "L*L", "--upto", "5"), ("natcount", "E*E", "P", "--upto", "5")],
)
def test_repeated_request_does_no_group_work(argv, monkeypatch):
    calls = []

    def counted(name):
        real = getattr(transforms, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("actions_isomorphic", "count_equivariant_maps"):
        monkeypatch.setattr(transforms, name, counted(name))
    species.clear_caches()
    cold = run(argv)
    assert calls
    calls.clear()
    assert run(argv) == cold
    assert calls == []
    species.clear_caches()


@pytest.mark.parametrize(
    "argv, after_repeat",
    [
        (("monoid", "lin", "--upto", "5", "--json"), []),
        (("algtensor", "--upto", "4", "--json"), []),
    ],
)
def test_repeated_request_checks_no_law(argv, after_repeat, monkeypatch):
    calls = []

    def counted(name):
        real = getattr(transforms, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("check_naturality", "_associative"):
        monkeypatch.setattr(transforms, name, counted(name))
    species.clear_caches()
    cold = run(argv)
    assert cold[0] == 0 and "check_naturality" in calls
    calls.clear()
    assert run(argv) == cold
    assert calls == after_repeat
    species.clear_caches()
    assert run(argv) == cold
    species.clear_caches()


def test_cauchy_layouts_are_kept():
    species.clear_caches()
    layout = species.cauchy_layout(Lin(), Exp(), 4)
    assert species.cauchy_layout(Lin(), Exp(), 4) is layout
    assert caches.report()["Cauchy layouts"] == (1, len(layout)) == (1, 16)
    species.clear_caches()
    assert caches.report()["Cauchy layouts"] == (0, 0)
    assert species.cauchy_layout(Lin(), Exp(), 4) == layout
    species.clear_caches()


@pytest.mark.parametrize(
    "argv, code, err, table",
    [
        (
            ("iso", "E", "E*1", "--upto", "9"),
            1,
            "error: S_9 exceeds the configured cap 8\n",
            "transforms.iso_check",
        ),
        (
            ("coeffs", "E o (", "--upto", "4"),
            2,
            "parse error: expected an atom, found '' at offset 5",
            "cli.parse_expr",
        ),
        (
            ("terminal", "--dyn", "pointing", "E", "--upto", "4"),
            1,
            "error: terminal machines for the pointing",
            "automata.terminal_counts",
        ),
    ],
)
def test_failing_request_is_not_remembered(argv, code, err, table, capsys):
    species.clear_caches()
    answers = []
    for _ in range(2):
        answers.append((run(argv), capsys.readouterr().err))
        assert caches.report()[table] == (0, 0)
    assert answers[0] == answers[1]
    (got, out), stderr = answers[0]
    assert (got, out) == (code, "")
    assert stderr.startswith(err) and stderr.count("\n") == 1, stderr


@pytest.mark.parametrize(
    "query, args, error",
    [
        (iso_check, (Exp(), Cauchy(Exp(), One()), 9), DegreeTooLarge),
        (parse_expr, ("E o (",), ParseError),
        (terminal_counts, (PointingDyn(), Exp(), 4), NotSupported),
    ],
)
def test_failing_query_raises_afresh(query, args, error):
    species.clear_caches()
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            query(*args)
        raised.append(info.value)
    first, second = raised
    assert first is not second and str(first) == str(second)
    depth = [len(traceback.extract_tb(e.__traceback__)) for e in raised]
    assert depth[0] == depth[1]
    name = f"{query.__module__.rpartition('.')[2]}.{query.__name__}"
    assert caches.report()[name] == (0, 0)


def test_unhashable_arguments_are_computed_unremembered():
    species.clear_caches()
    report = canonical_iso_suite(3, names=["napier", "der_cyc"])
    assert report == canonical_iso_suite(3, names=("napier", "der_cyc"))
    assert caches.report()["transforms.canonical_iso_suite"][0] == 1


# --- the cap ------------------------------------------------------------------


_EXPRS = (
    "E", "E+", "L", "L+", "C", "S", "P", "X", "1", "E o C",
    "D(L)", "L*L", "E*E", "C*E", "D(C)", "P&C", "E o E+", "X + C", "pt(C)", "adjL(E)",
)  # fmt: skip


def _requests():
    """Distinct small requests over every command that computes."""
    out = []
    for e, other in zip(_EXPRS, _EXPRS[1:] + _EXPRS[:1]):
        out += [
            ("coeffs", e, "--upto", "6"),
            ("coeffs", e, "--upto", "9", "--json"),
            ("orbits", e, "--degree", "3"),
            ("enumerate", e, "--degree", "2"),
            ("iso", e, other, "--upto", "3"),
            ("natcount", e, other, "--upto", "3"),
            ("homday", "X", e, "--upto", "3"),
            ("terminal", "--dyn", "adjL", e, "--upto", "3"),
            ("terminal", "--dyn", "derive", e, "--upto", "3"),
            ("egf", e, "--upto", "5"),
        ]
    out += [("solve", "--op", "E + X:0", "--upto", str(n)) for n in range(4, 24)]
    return out


def _measured():
    return sum(slots for _, slots in caches.report().values())


def _bounded_under_cap(calls, monkeypatch):
    """Each call's answer after clear_caches, and its slots from empty
    tables; then all calls in a row under a cap of a tenth of their sum:
    each answer is the same, no call leaves more than the cap plus its
    own cold slots, and the slots the writers added are the report's."""
    cold = []
    for call in calls:
        species.clear_caches()
        cold.append((call(), caches.held))
    cap = sum(slots for _, slots in cold) // 10
    monkeypatch.setattr(caches, "CAP", cap)
    clears = []
    real = caches.clear
    monkeypatch.setattr(caches, "clear", lambda: clears.append(1) or real())
    species.clear_caches()
    for call, (answer, slots) in zip(calls, cold):
        assert call() == answer
        assert caches.held <= cap + slots
        assert caches.held == _measured()
    assert len(clears) >= 3  # the cap was reached, more than once
    species.clear_caches()


def test_cap_bounds_the_tables_across_cli_requests(monkeypatch, capsys):
    requests = _requests()
    assert len(set(requests)) == len(requests) >= 200

    def call(argv):
        return lambda: (run(argv), capsys.readouterr().err)

    _bounded_under_cap([call(argv) for argv in requests], monkeypatch)


def test_cap_bounds_the_tables_across_library_queries(monkeypatch):
    exprs = [parse_expr(text) for text in _EXPRS]
    calls = []
    for f, g in itertools.product(exprs[:9], exprs[:9]):
        calls += [
            lambda f=f, g=g: iso_check(f, g, 3),
            lambda f=f, g=g: count_nat(f, g, 3),
        ]
    calls += [lambda g=g: hom_day_counts(X(), g, 3) for g in exprs]
    calls += [lambda g=g: terminal_counts(DeriveDyn(), g, 4) for g in exprs[:8]]
    calls += [lambda n=n: adamek_chain(parse_operator("E + X:0"), n) for n in range(4, 24)]
    calls += [lambda n=n: iso_check(Perm(), Substitute(Exp(), Cyc()), n) for n in range(5)]
    assert len(calls) >= 200
    _bounded_under_cap(calls, monkeypatch)


def test_cap_sees_sequences_extended_in_place(monkeypatch):
    """A request that adds no entry but extends a stored counting
    sequence still counts its slots."""
    species.clear_caches()
    run(("coeffs", "L", "--upto", "3"))
    monkeypatch.setattr(caches, "CAP", 1000)
    entries = {name: n for name, (n, _) in caches.report().items()}
    run(("coeffs", "L", "--upto", "2000"))
    assert {name: n for name, (n, _) in caches.report().items()} == entries
    assert caches.held == _measured() > 1000
    run(("coeffs", "L", "--upto", "3"))
    assert caches.held < 1000
    species.clear_caches()


def test_cap_is_not_checked_while_a_query_computes(monkeypatch):
    """Nested remembered queries (the suite's iso checks, the terminal
    products' hom counts) never empty the tables under their caller, even
    when every check finds the tables over the cap."""
    cold = (canonical_iso_suite(4), terminal_counts(TensorBy(X()), Exp(), 3))
    species.clear_caches()
    computing = []
    real = caches.clear
    monkeypatch.setattr(caches, "clear", lambda: computing.append(caches._computing) or real())
    monkeypatch.setattr(caches, "CAP", -1)
    assert (canonical_iso_suite(4), terminal_counts(TensorBy(X()), Exp(), 3)) == cold
    assert computing == [0, 0]
    species.clear_caches()


# Each species entry a library caller may use alone, outside any
# remembered query.
LIBRARY_ENTRIES = {
    "cardinality": lambda: species.cardinality(Lin(), 300),
    "counts_upto": lambda: species.counts_upto(Cauchy(Lin(), Cyc()), 200),
    "enumerate_degree": lambda: species.enumerate_degree(Perm(), 5).points,
    "structures_on": lambda: species.structures_on(Cauchy(Lin(), Cyc()), (1, 2, 3, 4, 5)),
    "generator_arrays": lambda: species.generator_arrays(Cyc(), 6),
}


@pytest.mark.parametrize("entry", LIBRARY_ENTRIES)
def test_library_entries_check_the_cap(entry, monkeypatch):
    """A library caller that reaches the tables through one species entry
    alone: past the cap, the entry empties every table before it computes,
    and computes the same answer afresh."""
    call = LIBRARY_ENTRIES[entry]
    species.clear_caches()
    answer = call()
    stored = caches.held
    assert stored == _measured() > 0
    cleared = []
    real = caches.clear
    monkeypatch.setattr(caches, "clear", lambda: cleared.append(caches._computing) or real())
    monkeypatch.setattr(caches, "CAP", stored - 1)
    assert call() == answer
    assert cleared == [0] and caches.held == stored
    species.clear_caches()


def test_slots_grow_with_the_arrays():
    species.clear_caches()
    iso_check(Perm(), Substitute(Exp(), Cyc()), 6)
    report = caches.report()
    entries, slots = report["compiled arrays"]
    assert slots >= 2 * 720 and slots > 10 * entries
    assert caches.held == _measured()
    species.clear_caches()


def test_a_remembered_answer_is_counted_in_its_own_table_only():
    """``check_monoid``'s key holds the ``lin_concat_mu`` answer, which
    that table counts: the monoid entry counts only what it adds."""
    species.clear_caches()
    assert run(("monoid", "lin", "--upto", "5"))[0] == 0
    report = caches.report()
    (mu,) = caches._TABLES["transforms.lin_concat_mu"][0].values()
    ((key, (answer, slots)),) = caches._TABLES["transforms.check_monoid"][0].items()
    assert mu[0] in key and report["transforms.check_monoid"] == (1, slots)
    # its key's other parts and its report are a few slots; before, it
    # counted the components again: 891 slots, against 883 in mu's table
    assert slots < 20 < 800 < mu[1]
    assert caches.held == _measured()
    species.clear_caches()
