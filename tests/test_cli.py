import argparse
import io
import json
import math
import random
import shlex
import sys
from pathlib import Path

import pytest
from helpers import (
    reference_parse_expr,
    reference_parse_operator,
    reference_parser,
    reference_tokenize,
)

from espece import caches, cli
from espece.cli import (
    MAX_NESTING,
    _dumps,
    _parse_args,
    main,
    parse_expr,
    parse_operator,
    render,
)
from espece.diffeq import adamek_chain
from espece.errors import ParseError
from espece.groups import orbits, stabilizer
from espece.species import (
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
    X,
    Zero,
    enumerate_degree,
)

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "src" / "espece" / "schema.json"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# --- parsing ----------------------------------------------------------------


def test_parse_substitution():
    assert parse_expr("E o C") == Substitute(Exp(), Cyc())


def test_parse_derivative():
    assert parse_expr("D(L)") == Derive(Lin())


def test_parse_precedence():
    assert parse_expr("X*D(E)+1") == Sum(Cauchy(X(), Derive(Exp())), One())


def test_parse_substitution_binds_tighter_than_product():
    assert parse_expr("E o C * L") == Cauchy(Substitute(Exp(), Cyc()), Lin())
    assert parse_expr("X*E o C") == Cauchy(X(), Substitute(Exp(), Cyc()))


def test_parse_substitution_right_associative():
    assert parse_expr("L o C o X") == Substitute(Lin(), Substitute(Cyc(), X()))


def test_parse_hadamard_shares_product_level():
    assert parse_expr("E&L*C") == Cauchy(Hadamard(Exp(), Lin()), Cyc())


def test_parse_nonempty_variants():
    assert parse_expr("E+") == ExpPlus()
    assert parse_expr("L+") == LinPlus()
    assert parse_expr("E+X") == Sum(Exp(), X())
    assert parse_expr("E+ + X") == Sum(ExpPlus(), X())
    assert parse_expr("D(E+)") == Derive(ExpPlus())
    assert parse_expr("E+ o C") == Substitute(ExpPlus(), Cyc())


def test_parse_all_atoms():
    assert parse_expr("0") == Zero()
    assert parse_expr("1") == One()
    assert parse_expr("Y(3)") == Representable(3)
    assert parse_expr("S") == Perm()
    assert parse_expr("P") == Subsets()
    assert parse_expr("pt(L)") == Pointing(Lin())
    assert parse_expr("adjL(E)") == AdjL(Exp())
    assert parse_expr("adjR(E)") == AdjR(Exp())
    assert parse_expr("dL(E)") == DeriveL(Exp())
    assert parse_expr("((X))") == X()


def test_parse_whitespace_insignificant():
    assert parse_expr(" E  o  C ") == parse_expr("EoC".replace("o", " o "))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_expr("E o")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse_expr("D(L")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse_expr("E @ C")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError) as exc:
        parse_expr("E C")
    assert exc.value.offset == 2


GOLDEN_EXPRS = (
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
    Representable(4),
    Sum(Cauchy(X(), Derive(Exp())), One()),
    Substitute(Exp(), Cyc()),
    Substitute(Substitute(Lin(), Cyc()), X()),
    Substitute(Sum(Exp(), Lin()), Cyc()),
    Cauchy(Sum(X(), Exp()), Lin()),
    Hadamard(Exp(), Sum(Lin(), Cyc())),
    DeriveL(Pointing(AdjL(AdjR(Exp())))),
    Cauchy(Substitute(Exp(), Cyc()), Hadamard(Lin(), Perm())),
    Sum(X(), Sum(Lin(), Cyc())),
    Cauchy(Lin(), Hadamard(Exp(), Cyc())),
)


def test_render_parse_roundtrip():
    for e in GOLDEN_EXPRS:
        assert parse_expr(render(e)) == e, render(e)
    # rendering walks an explicit stack, so long sums and chains print
    for text in ("+".join(["X"] * 1500), " o ".join(["X"] * 1500)):
        e = parse_expr(text)
        assert render(e) == text
        assert parse_expr(render(e)) is e


# --- operator specifications -------------------------------------------------


def test_parse_operator_terms():
    D = parse_operator("X:1 + Y(2):0")
    assert D.terms == ((X(), 1), (Representable(2), 0))
    assert D.constant is None
    assert D.max_order == 1


def test_parse_operator_scalar_constant():
    D = parse_operator("1:0 + X:0")
    assert D.terms == ((X(), 0),)
    assert D.constant == One()
    D2 = parse_operator("Y(0):0 + X:1")
    assert D2.constant == Representable(0)


def test_parse_operator_bare_constant():
    D = parse_operator("E + X:0")
    assert D.terms == ((X(), 0),)
    assert D.constant == Exp()


def test_parse_operator_compound_coefficient():
    D = parse_operator("(1+X):1")
    assert D.terms == ((Sum(One(), X()), 1),)


def test_parse_operator_errors():
    with pytest.raises(ParseError):
        parse_operator("")
    with pytest.raises(ParseError):
        parse_operator("X:")
    with pytest.raises(ParseError):
        parse_operator("X:1 ++")


# --- command output ----------------------------------------------------------


def test_coeffs_output():
    code, out = run("coeffs", "E o C", "--upto", "4")
    assert code == 0
    assert out == "1, 1, 2, 6, 24\n"


def test_egf_output():
    code, out = run("egf", "C", "--upto", "4")
    assert code == 0
    assert out == "0, 1, 1/2, 1/3, 1/4\n"


def test_iso_output():
    code, out = run("iso", "P", "E*E", "--upto", "5")
    assert code == 0
    assert out == "isomorphic up to degree 5: true\n"
    code, out = run("iso", "S", "L", "--upto", "2")
    assert code == 0
    assert out == "isomorphic up to degree 2: false (witness degree 2)\n"


def test_natcount_output():
    code, out = run("natcount", "C", "D(C)", "--upto", "2")
    assert code == 0
    assert out == "1,1,0; cumulative 0\n"


def test_solve_outputs():
    code, out = run("solve", "--op", "1:0 + X:0", "--upto", "4")
    assert code == 0
    assert "Converged: 1, 1, 2, 6, 24" in out
    code, out = run("solve", "--op", "E + X:0", "--upto", "4")
    assert "Converged: 1, 2, 5, 16, 65" in out
    code, out = run("solve", "--op", "1:0 + Y(2):1", "--upto", "4")
    assert "Converged: 1, 0, 0, 0, 0" in out
    code, out = run("solve", "--op", "1:0 + X:1", "--upto", "4")
    assert "Diverged at degree 2" in out


def test_solve_with_no_step_certifies_no_degree():
    # one iterate has made no step: no degree is stable, so there is no limit
    # and no contact to report
    code, out = run("solve", "--op", "E + X:0", "--max-iter", "0", "--upto", "5")
    assert (code, out) == (0, "iterate 0: 1, 1, 1, 1, 1, 1\nDiverged at degree 0\n")
    code, out = run("solve", "--op", "E + X:0", "--max-iter", "0", "--upto", "5", "--json")
    assert json.loads(out)["result"] == {
        "iterates": [[1, 1, 1, 1, 1, 1]],
        "converged": False,
        "limit": None,
        "witness": 0,
        "fixpoint_contact": None,
    }


def test_fixcheck_outputs():
    # "1:1" is the derivative operator; the exponential solves dG = G
    code, out = run("fixcheck", "--op", "1:1", "--expr", "E", "--upto", "3")
    assert code == 0
    assert out == "contact order: at-least-horizon\n"
    code, out = run("fixcheck", "--op", "1:0 + X:0", "--seq", "1,1,2,6,24", "--upto", "4")
    assert out == "contact order: at-least-horizon\n"


def test_enumerate_and_orbits_output():
    code, out = run("enumerate", "C", "--degree", "3")
    assert code == 0
    assert out.splitlines()[0] == "2 structure(s) at degree 3"
    code, out = run("orbits", "P", "--degree", "3")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_orbits_cap_bites_only_with_a_point_to_stabilize(capsys):
    assert run("orbits", "E", "--degree", "9") == (1, "")
    assert capsys.readouterr().err == "error: S_9 exceeds the configured cap 8\n"
    assert run("orbits", "X", "--degree", "9") == (0, "\n")
    assert capsys.readouterr().err == ""


def test_orbits_stabilizer_order_is_the_stabilizer_size():
    # the printed n!/|orbit| against a walk of S_n for each representative
    for text in ("P", "C*L", "E o C", "X*E+L", "pt(C)", "E&L", "Y(2)*E"):
        e = parse_expr(text)
        for n in range(7):
            code, out = run("orbits", text, "--degree", str(n), "--json")
            action = enumerate_degree(e, n)
            want = [
                [len(orb.points), len(stabilizer(action, orb.representative))]
                for orb in orbits(action)
            ]
            got = [[r["size"], r["stabilizer_order"]] for r in json.loads(out)["result"]]
            assert (code, got) == (0, want), (text, n)


def test_solve_text_renders_every_iterate():
    # the chain shares one CountSeq between iterates once it is stable
    for op in ("1:0 + X:0", "E + X:0", "1:0 + X:1", "1:1"):
        D = parse_operator(op)
        report = adamek_chain(D, 6)
        lines = [f"iterate {i}: {s.render()}" for i, s in enumerate(report.iterates)]
        code, out = run("solve", "--op", op, "--upto", "6")
        assert (code, out.splitlines()[: len(lines)]) == (0, lines), op


def test_terminal_and_homday_output():
    code, out = run("terminal", "--dyn", "adjL", "Y(2)", "--upto", "3")
    assert code == 0
    assert out == "0, 0, 0, 0\n"
    code, out = run("homday", "X", "L", "--upto", "4")
    assert out == "1, 2, 6, 24, 120\n"
    code, out = run("terminal", "--dyn", "tensor", "--by", "X", "E", "--upto", "3")
    assert out == "1, 1, 1, 1\n"


def test_terminal_derive_stops_at_the_bound(capsys):
    # the exact row entries of L grow as towers; each N here is answered at once
    for n in range(6, 13):
        code, out = run("terminal", "--dyn", "derive", "L", "--upto", str(n))
        assert (code, out) == (1, ""), n
        assert capsys.readouterr().err == f"error: terminal(derive,Lin()) degree 6 exceeds {10**60}\n"
    assert run("terminal", "--dyn", "derive", "L", "--upto", "5", "--moore") == (
        0,
        "1, 1, 2, 48, 127401984, 4027747178726102955105561756869669557370880\n",
    )
    assert run("terminal", "--dyn", "derive", "E", "--upto", "6") == (0, "1, 1, 1, 1, 1, 1, 1\n")
    assert run("terminal", "--dyn", "derive", "E+X", "--upto", "5", "--moore") == (
        0,
        "1, 2, 4, 64, 16777216, 1329227995784915872903807060280344576\n",
    )
    code, out = run("terminal", "--dyn", "derive", "E+X", "--upto", "6")
    err = capsys.readouterr().err
    assert (code, err) == (1, f"error: terminal(derive,Sum(f=Exp(), g=X())) degree 6 exceeds {10**60}\n")


def test_suite_monoid_algtensor_smoke():
    code, out = run("suite", "--name", "napier", "--upto", "4")
    assert code == 0
    assert "napier: pass" in out
    code, out = run("monoid", "lin", "--upto", "3")
    assert code == 0
    assert "monoid laws: pass" in out
    code, out = run("algtensor", "--upto", "2")
    assert code == 0
    assert "associativity=pass" in out


def test_natenum_output():
    code, out = run("natenum", "C", "D(C)", "--upto", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 transformation(s)"


def test_exit_codes():
    code, _ = run("coeffs", "E o (")
    assert code == 2
    code, _ = run("coeffs", "E o E")
    assert code == 1
    code, _ = run("coeffs", "L")
    assert code == 0
    code, _ = run("enumerate", "L", "--degree", "6", "--limit", "10")
    assert code == 1  # enumeration above the cap is a domain error


def test_numeric_flags_reject_negative_values(capsys):
    cases = (
        ("coeffs", "E", "--upto", "-1"),
        ("coeffs", "E", "--upto", "four"),
        ("solve", "--op", "1:0 + X:0", "--max-iter", "-5"),
        ("orbits", "P", "--degree", "-2"),
        ("enumerate", "C", "--degree", "1.5"),
        ("natenum", "C", "D(C)", "--upto", "2", "--limit", "-3"),
        ("enumerate", "C", "--degree", "3", "--limit", "-1"),
        ("orbits", "C", "--degree", "3", "--limit", "-1"),
    )
    for argv in cases:
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and "nonnegative integer" in err, err


def test_fixcheck_malformed_seq_is_parse_error(capsys):
    for seq, offset in (("1,a", 2), ("1, -1", 3), ("1,,2", 2), ("2.5", 0), ("", 0)):
        code, out = run("fixcheck", "--op", "1:1", "--seq", seq)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), seq
        assert err.startswith("parse error:") and f"at offset {offset}" in err, err


def test_digits_int_cannot_read_are_parse_errors(capsys):
    """A digit that is not a decimal digit, as "\u00b2", starts no number:
    it is an unexpected character, reported at its offset."""
    for argv in (("coeffs", "Y(\u00b2)"), ("solve", "--op", "X:\u00b2")):
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert err == "parse error: unexpected character '\u00b2' at offset 2\n", err


def test_options_a_command_would_ignore_exit_2(capsys):
    cases = (
        (("terminal", "--dyn", "derive", "--by", "X", "E", "--upto", "3"), "--by applies only"),
        (("terminal", "--dyn", "adjL", "--by", "X", "E", "--json"), "--by applies only"),
        (("fixcheck", "--op", "1:1", "--expr", "E", "--seq", "1,1", "--upto", "3"), "not both"),
        # an empty value is given, not missing
        (("fixcheck", "--op", "1:1", "--expr", "", "--upto", "3"), "empty expression"),
        (("terminal", "--dyn", "tensor", "--by", "", "E"), "empty expression"),
    )
    for argv, message in cases:
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error:") and message in err and err.count("\n") == 1, err


def test_deep_sum_counts_without_recursion():
    deep = "+".join(["X"] * 1500)
    code, out = run("coeffs", deep, "--upto", "3")
    assert (code, out) == (0, "0, 1500, 0, 0\n")
    code, out = run("terminal", "--dyn", "adjL", deep, "--upto", "2")
    assert (code, out) == (0, "0, 0, 0\n")
    code, out = run("coeffs", " o ".join(["X"] * 1500), "--upto", "3")
    assert (code, out) == (0, "0, 1, 0, 0\n")


def test_long_sum_enumerates():
    # builders emit sorted structures, so a sum is not re-sorted at each of
    # its 400 levels
    deep = "+".join(["X"] * 400)
    code, out = run("enumerate", deep, "--degree", "1")
    assert code == 0 and out.splitlines()[0] == "400 structure(s) at degree 1"
    assert run("iso", deep, deep, "--upto", "1") == (0, "isomorphic up to degree 1: true\n")
    code, out = run("orbits", deep, "--degree", "1")
    assert code == 0 and len(out.splitlines()) == 400


def test_deep_encodings_print_without_recursion():
    # each structure of the left-nested sum nests about 1500 levels deep,
    # past the recursion limit of the C JSON encoder
    n = 1500
    deep = "+".join(["X"] * n)
    expected = []
    for i in range(1, n + 1):  # the i-th X: inl around it n - i times, inr once if i > 1
        inner = '["rep",[1]]' if i == 1 else '["inr",["rep",[1]]]'
        expected.append('["inl",' * (n - i) + inner + "]" * (n - i))
    code, out = run("enumerate", deep, "--degree", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"{n} structure(s) at degree 1"
    assert sorted(lines[1:]) == sorted(expected)
    code, out = run("orbits", deep, "--degree", "1", "--json")
    assert code == 0
    rows = out[out.index('"result":[') + len('"result":[') : -len("]}\n")]
    assert rows.split('{"representative":')[1:] == [
        f"{enc},\"size\":1,\"stabilizer_order\":1}}" + ("," if i < n - 1 else "")
        for i, enc in enumerate(sorted(expected, key=lambda t: t.count("inl"), reverse=True))
    ]


def test_deep_documents_dump_as_the_json_module_does():
    deep = ["leaf"]
    for _ in range(1200):
        deep = ["inl", deep, 0]
    deep_text = '["inl",' * 1200 + '["leaf"]' + ",0]" * 1200
    doc = {"b": [1, True, None, 'q"\u00e9\n'], "a": deep, "c": {}, "d": []}
    doc["e"] = {"y": 2, "x": [[]]}
    for sort_keys in (False, True):
        # the json module writes everything but the deep part
        shallow = json.dumps({**doc, "a": "DEEP"}, sort_keys=sort_keys, separators=(",", ":"))
        assert _dumps(doc, sort_keys) == shallow.replace('"DEEP"', deep_text)


def test_big_integers_print_in_full():
    # 2000! has 5736 digits, past the interpreter's default int/str limit
    limit = getattr(sys, "get_int_max_str_digits", None)
    digits = limit() if limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = str(math.factorial(2000))
    finally:
        if limit:
            sys.set_int_max_str_digits(digits)
    code, out = run("coeffs", "L", "--upto", "2000")
    assert code == 0 and out.split(", ")[-1] == expected + "\n"
    code, out = run("coeffs", "L", "--upto", "2000", "--json")
    assert code == 0
    assert out.split('"result":[')[1].split("]")[0].split(",")[-1] == expected
    if limit:  # main puts the interpreter's limit back
        assert limit() == digits


def test_json_output_renders_no_text(monkeypatch):
    from espece.counting import CountSeq

    def no_render(self):
        raise AssertionError("the text of a --json request was rendered")

    monkeypatch.setattr(CountSeq, "render", no_render)
    code, out = run("solve", "--op", "E + X:0", "--upto", "20", "--json")
    assert code == 0 and json.loads(out)["result"]["converged"] is True
    assert run("coeffs", "L", "--upto", "4", "--json")[0] == 0


def test_nesting_cap(capsys):
    assert MAX_NESTING >= 150  # the benchmark parses D^150(E)
    for opener, inner, atom in (("(", X(), "X"), ("D(", Exp(), "E")):
        at_cap = opener * MAX_NESTING + atom + ")" * MAX_NESTING
        past = opener * (MAX_NESTING + 1) + atom + ")" * (MAX_NESTING + 1)
        expected = inner
        for _ in range(MAX_NESTING if opener == "D(" else 0):
            expected = Derive(expected)
        assert parse_expr(at_cap) == expected
        with pytest.raises(ParseError) as exc:
            parse_expr(past)
        assert exc.value.offset == len(opener) * MAX_NESTING
        code, out = run("coeffs", at_cap, "--upto", "2")
        assert (code, out) == (0, "0, 1, 0\n" if opener == "(" else "1, 1, 1\n")
        capsys.readouterr()
        code, out = run("coeffs", past, "--upto", "2")
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"at offset {len(opener) * MAX_NESTING}" in err, err
    with pytest.raises(ParseError) as exc:
        parse_operator("(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1) + ":0")
    assert exc.value.offset == MAX_NESTING
    # the cap bounds nesting, not the number of groups
    siblings = "+".join(["D(X)"] * (MAX_NESTING + 1))
    assert run("coeffs", siblings, "--upto", "1") == (0, f"{MAX_NESTING + 1}, 0\n")


def test_nesting_cap_holds_deep_in_the_call_stack():
    """Open groups live on the parser's own stack: input at the cap parses
    from 250 frames deep, and one level more raises the cap's error."""

    def at_depth(k, fn):
        return fn() if k == 0 else at_depth(k - 1, fn)

    def raised(fn):
        with pytest.raises(ParseError) as exc:
            at_depth(250, fn)
        return str(exc.value), exc.value.offset

    caches.clear()  # so each call parses, not reads a remembered answer
    for opener, atom, order in (("(", "X", "0"), ("D(", "E", "1")):
        at_cap = opener * MAX_NESTING + atom + ")" * MAX_NESTING
        past = opener * (MAX_NESTING + 1) + atom + ")" * (MAX_NESTING + 1)
        offset = len(opener) * MAX_NESTING
        message = f"nesting deeper than {MAX_NESTING} at offset {offset}"
        assert at_depth(250, lambda: parse_expr(at_cap)) is parse_expr(at_cap)
        operator = at_depth(250, lambda: parse_operator(f"{at_cap}:{order}"))
        assert operator.terms or operator.constant is not None
        assert raised(lambda: parse_expr(past)) == (message, offset)
        assert raised(lambda: parse_operator(f"{past}:{order}")) == (message, offset)


# Pieces of random input: the grammar's atoms, functions and punctuation,
# near misses, and non-ASCII whitespace, digits and letters.
_PIECES = (
    "X", "E", "L", "C", "S", "P", "0", "1", "E+", "L+", "Y(", "D(", "pt(", "adjL(",
    "adjR(", "dL(", "(", ")", ")", "+", "+", "*", "&", " o ", "o", ":", "2", "12", "007",
    " ", "  ", "\t", "\u00a0", "\u00b2", "\u0663", "\u00e9", "Y", "pt", "a", "x", "_", "$",
)


def _random_expression(rng, depth):
    """Text of a random expression of the grammar, with random spacing."""
    space = rng.choice(("", "", " ", "\u00a0"))
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(("X", "E", "L", "C", "S", "P", "0", "1", "E+", "L+", "Y(2)"))
    if roll < 0.5:
        name = rng.choice(("D", "pt", "adjL", "adjR", "dL", ""))
        return f"{name}({space}{_random_expression(rng, depth - 1)}{space})"
    op = rng.choice(("+", "*", "&", " o "))
    return space.join((_random_expression(rng, depth - 1), op, _random_expression(rng, depth - 1)))


def _random_inputs(rng, count):
    """Piece strings, and random expressions as they are and with one
    piece inserted or one character dropped."""
    out = []
    while len(out) < count:
        out.append("".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 14))))
        shown = _random_expression(rng, rng.randint(1, 5))
        i = rng.randrange(len(shown) + 1)
        out += [shown, shown[:i] + rng.choice(_PIECES) + shown[i:], shown[:i] + shown[i + 1 :]]
    return out


def _outcome(fn, text):
    """What fn(text) gives, or the type, text, offset and expected set of
    what it raises."""
    try:
        return "ok", fn(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "expected", None)


def test_front_end_matches_recursive_descent():
    """The flat tokenizer and precedence-climbing parser against the
    recursive-descent ones they replace, on seeded random input: the same
    tokens, the same node (by identity) or operator, the same error."""
    rng = random.Random(20)
    parse, operator = parse_expr.__wrapped__, parse_operator.__wrapped__
    parsed = 0
    for text in _random_inputs(rng, 3000):
        assert _outcome(cli._tokenize, text) == _outcome(reference_tokenize, text), text
        got, want = _outcome(parse, text), _outcome(reference_parse_expr, text)
        if want[0] == "ok":
            parsed += 1
            assert got[0] == "ok" and got[1] is want[1], text
        else:
            assert got == want, text
        for spec in (text, text + ":1", text + ":0 + X"):
            assert _outcome(operator, spec) == _outcome(reference_parse_operator, spec), spec
    assert parsed > 1000  # most random expressions parse, their near misses mostly not


def test_symmetric_group_degree_cap(capsys):
    code, out = run("orbits", "P", "--degree", "9")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: S_9 exceeds the configured cap 8\n"
    # above the cap iso settles a degree only on equal structures: E and E*1
    # have equal arrays but different structures at degree 9
    for argv in (("iso", "E", "E*1", "--upto", "9"), ("algtensor", "--upto", "9")):
        assert run(*argv) == (1, "")
        assert capsys.readouterr().err == "error: S_9 exceeds the configured cap 8\n"
    assert run("iso", "dL(E)", "D(adjL(E))", "--upto", "9") == (
        0,
        "isomorphic up to degree 9: true\n",
    )


# --- machine-readable output --------------------------------------------------


def _validate_schema(doc):
    schema = json.loads(SCHEMA_PATH.read_text())
    try:
        import jsonschema

        jsonschema.validate(doc, schema)
    except ImportError:
        assert set(doc) == set(schema["required"])
        assert isinstance(doc["command"], str)
        assert isinstance(doc["inputs"], dict)
        assert doc["horizon"] is None or isinstance(doc["horizon"], int)
        assert isinstance(doc["diagnostics"], list)


def test_json_envelope_and_determinism():
    cases = (
        ("coeffs", "E o C", "--upto", "4", "--json"),
        ("iso", "P", "E*E", "--upto", "4", "--json"),
        ("natcount", "C", "D(C)", "--upto", "2", "--json"),
        ("solve", "--op", "1:0 + Y(2):1", "--upto", "3", "--json"),
        ("terminal", "--dyn", "adjL", "E", "--upto", "3", "--json"),
        ("enumerate", "C", "--degree", "3", "--json"),
        ("suite", "--name", "der_cyc", "--upto", "3", "--json"),
    )
    for argv in cases:
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical on identical inputs
        doc = json.loads(out1)
        _validate_schema(doc)


def test_json_result_values():
    _, out = run("coeffs", "E o C", "--upto", "4", "--json")
    doc = json.loads(out)
    assert doc["command"] == "coeffs"
    assert doc["result"] == [1, 1, 2, 6, 24]
    assert doc["horizon"] == 4
    assert doc["inputs"] == {"expr": "E o C"}


def test_seed_flag_is_rejected(capsys):
    code, out = run("coeffs", "L", "--upto", "3", "--seed", "7")
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == "espece: error: unrecognized option: --seed\n"


# --- argument reading ---------------------------------------------------------


def _readme_examples():
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


ARGV_CORPUS = (
    ("natenum", "C", "D(C)", "--upto", "2", "--limit", "5"),
    ("solve", "--op", "1:0 + X:0", "--max-iter", "3", "--upto", "4", "--json"),
    ("fixcheck", "--op", "1:0 + X:0", "--seq", "-7", "--upto", "2"),
    ("orbits", "P", "--degree", "3", "--limit", "50", "--json"),
    ("terminal", "--moore", "--dyn", "derive", "E", "--upto", "3"),
    ("suite", "--name", "napier"),
    ("algtensor",),
    ("monoid", "exp", "--json"),
    # --opt=value and unique prefixes
    ("coeffs", "L", "--upto=3"),
    ("coeffs", "L", "--up", "3"),
    ("coeffs", "L", "--up=3", "--js"),
    ("enumerate", "C", "--deg", "3", "--lim=9"),
    ("orbits", "--d=2", "C"),
    ("solve", "--op=1:0 + X:0", "--max", "2"),
    ("terminal", "--dy=tensor", "--b", "X", "E", "--mo"),
    ("fixcheck", "--o", "1:1", "--ex", "E", "--seq=1"),
    # repeated options (the last wins), options around positionals, "--"
    ("coeffs", "--upto", "2", "L", "--upto", "7"),
    ("iso", "--upto", "3", "S", "--json", "L", "--upto", "1", "--upto=2"),
    ("natcount", "C", "--upto", "2", "D(C)"),
    ("coeffs", "--upto", "3", "--", "-1"),
    ("iso", "S", "--", "L"),
    ("homday", "--", "X", "L"),
    ("iso", "--", "S", "--json"),
    ("fixcheck", "--op", "1:1", "--expr", "-7"),
    ("fixcheck", "--op", "-1", "--seq", "-7 "),
    ("fixcheck", "--op", "1:1", "--se", "1"),  # --seq is the only option starting --se
)


def test_argv_reading_matches_reference_parser():
    examples = _readme_examples()
    reference = reference_parser()
    commands = next(a for a in reference._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in examples} == set(commands.choices)
    for argv in examples + [list(argv) for argv in ARGV_CORPUS]:
        assert vars(_parse_args(argv)) == vars(reference.parse_args(argv)), argv


USAGE_ERRORS = (
    ("enumerate", "C"),  # a required option missing
    ("coeffs",),  # a positional missing
    ("coeffs", "E", "--limit", "5"),  # --limit belongs to enumerate, orbits and natenum
    ("iso", "S", "L", "--limit=5"),
    ("coeffs", "E", "--max-iter", "5"),  # --max-iter belongs to solve
    ("terminal", "--dyn", "adjL", "E", "--max-iter", "2"),
    ("coeffs", "E", "--bogus"),
    ("iso", "S", "L", "E"),
    ("monoid", "set"),
    ("terminal", "--dyn", "left", "E"),
    ("suite", "--name", "nope"),
    ("coeffs", "E", "--upto"),  # a value missing
    ("coeffs", "E", "--upto", "--json"),
    ("solve", "--op"),
    ("coeffs", "E", "--json=1"),
    ("coeffs", "E", "--upto", "x"),
    (),  # no command
    ("frobnicate", "E"),
)


def test_usage_errors_match_reference_parser(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            reference_parser().parse_args(list(argv))
        assert exc.value.code == 2, argv
        capsys.readouterr()
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert err.startswith("espece: error: ") and err.count("\n") == 1, err


# The exact message after "espece: error: " of every USAGE_ERRORS case and
# of the prefix, "--opt=value", "--" and "-h" forms, pinned as literal text
# so that no change to how argv is read can change one unnoticed.
_DYN_CHOICES = "('adjL', 'derive', 'pointing', 'deriveL', 'tensor')"
_SUITE_CHOICES = (
    "('leibniz', 'chain_rule', 'perm_decomp', 'der_cyc', 'der_perm', 'napier', "
    "'commutation', 'der_R', 'R_der', 'lin_free')"
)
_COMMAND_CHOICES = (
    "choose from coeffs, egf, enumerate, orbits, iso, natcount, natenum, suite, "
    "monoid, algtensor, terminal, homday, solve, fixcheck"
)
USAGE_MESSAGES = {
    ("enumerate", "C"): "the following arguments are required: --degree",
    ("coeffs",): "the following arguments are required: expr",
    ("coeffs", "E", "--limit", "5"): "unrecognized option: --limit",
    ("iso", "S", "L", "--limit=5"): "unrecognized option: --limit",
    ("coeffs", "E", "--max-iter", "5"): "unrecognized option: --max-iter",
    ("terminal", "--dyn", "adjL", "E", "--max-iter", "2"): "unrecognized option: --max-iter",
    ("coeffs", "E", "--bogus"): "unrecognized option: --bogus",
    ("iso", "S", "L", "E"): "unrecognized arguments: E",
    ("monoid", "set"): "argument which: invalid choice: 'set' (choose from ('lin', 'exp'))",
    ("terminal", "--dyn", "left", "E"): f"argument --dyn: invalid choice: 'left' (choose from {_DYN_CHOICES})",
    ("suite", "--name", "nope"): f"argument --name: invalid choice: 'nope' (choose from {_SUITE_CHOICES})",
    ("coeffs", "E", "--upto"): "argument --upto: expected one argument",
    ("coeffs", "E", "--upto", "--json"): "argument --upto: expected one argument",
    ("solve", "--op"): "argument --op: expected one argument",
    ("coeffs", "E", "--json=1"): "argument --json: ignored explicit argument '1'",
    ("coeffs", "E", "--upto", "x"): "argument --upto: expected a nonnegative integer, got 'x'",
    (): f"a command is required; {_COMMAND_CHOICES}",
    ("frobnicate", "E"): f"'frobnicate' is not a command; {_COMMAND_CHOICES}",
    # unique prefixes, with and without "=value"
    ("terminal", "--m=1", "--dyn", "derive", "E"): "argument --moore: ignored explicit argument '1'",
    ("coeffs", "E", "--u"): "argument --upto: expected one argument",
    ("coeffs", "E", "--up=-1"): "argument --upto: expected a nonnegative integer, got '-1'",
    ("enumerate", "C", "--d", "x"): "argument --degree: expected a nonnegative integer, got 'x'",
    ("terminal", "--dy", "nope", "E"): f"argument --dyn: invalid choice: 'nope' (choose from {_DYN_CHOICES})",
    ("suite", "--na=x"): f"argument --name: invalid choice: 'x' (choose from {_SUITE_CHOICES})",
    ("monoid", "--j=x", "lin"): "argument --json: ignored explicit argument 'x'",
    ("coeffs", "E", "--=3"): "ambiguous option: --",
    ("coeffs", "---upto", "3", "E"): "unrecognized option: ---upto",
    # "--" ends the options
    ("coeffs", "--", "E", "--upto"): "unrecognized arguments: --upto",
    ("iso", "--", "S"): "the following arguments are required: right",
    ("coeffs", "E", "--", "L"): "unrecognized arguments: L",
    ("coeffs", "--upto", "--", "E"): "argument --upto: expected one argument",
    ("coeffs", "-", "E"): "unrecognized arguments: E",
    ("coeffs", "--", "-h", "-h"): "unrecognized arguments: -h",
    # -h and --help
    ("coeffs", "--he=x"): "argument --help: ignored explicit argument 'x'",
    ("coeffs", "E", "--upto", "-h"): "argument --upto: expected one argument",
}


def test_usage_messages_are_pinned(capsys):
    assert set(USAGE_ERRORS) <= set(USAGE_MESSAGES)
    for argv, message in USAGE_MESSAGES.items():
        code, out = run(*argv)
        assert (code, out, capsys.readouterr().err) == (2, "", f"espece: error: {message}\n"), argv
    _, own = run("coeffs", "-h")
    for argv in (("coeffs", "--h", "x"), ("coeffs", "E", "--hel"), ("coeffs", "-h", "--", "E")):
        assert run(*argv) == (0, own), argv


def test_argv_reading_builds_no_table_per_call(monkeypatch):
    # every command's table is built at import: reading argv derives no
    # attribute name from an option's spelling
    def refuse(word):
        raise AssertionError(f"_parse_args derived the attribute of {word!r}")

    monkeypatch.setattr(cli, "_dest", refuse)
    reference = reference_parser()
    for argv in _readme_examples() + [list(argv) for argv in ARGV_CORPUS]:
        assert vars(_parse_args(argv)) == vars(reference.parse_args(argv)), argv


def test_main_builds_no_argparse_parser(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("main constructed an argparse.ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run("coeffs", "E o C", "--upto", "4") == (0, "1, 1, 2, 6, 24\n")
    assert run("coeffs", "E", "--upto", "-1") == (2, "")
    assert run("coeffs", "--help")[0] == 0
    assert run()[0] == 2


def test_help_names_every_command_and_option():
    code, usage = run("-h")
    assert code == 0 and run("--help") == (0, usage)
    commands = next(a for a in reference_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in commands.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"--help"}
        code, own = run(name, "--help")
        assert code == 0 and run(name, "E", "-h") == (0, own)
        assert f"espece {name} " in usage and f"espece {name} " in own
        for flag in flags:
            assert flag in usage and flag in own, (name, flag)
        for flag in ("--limit", "--max-iter"):
            assert (flag in own) == (flag in flags), (name, flag)
