"""Command-line front end: expression parser, dispatcher, renderers.

Grammar (whitespace insignificant):

    expr   := term { "+" term }
    term   := factor { ("*" | "&") factor }        * Cauchy, & Hadamard
    factor := atom [ "o" factor ]                  substitution, right-assoc
    atom   := "0" | "1" | "X" | "E" | "E+" | "L" | "L+" | "C" | "S" | "P"
            | "Y(" nat ")" | "D(" expr ")" | "pt(" expr ")" | "adjL(" expr ")"
            | "adjR(" expr ")" | "dL(" expr ")" | "(" expr ")"

"E+"/"L+" are read as the nonempty variants only when the "+" is not
followed by the start of another atom, so "E+X" stays a sum.

Operator specifications for solve/fixcheck: terms "COEFF:ORDER" joined
by "+", each COEFF a product-level expression.  A term without ":" is a
constant; the scalar terms "1:0" and "Y(0):0" are also read as the
constant unit species (an identity operator can still be written at the
API level).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import automata, counting, diffeq, transforms
from .errors import EngineError, ParseError
from .groups import stabilizer
from .species import (
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
    SpeciesExpr,
    Subsets,
    Substitute,
    Sum,
    Table,
    TruncLeft,
    TruncRight,
    X,
    Zero,
    enc_to_json,
    enumerate_degree,
)
from .transforms import iso_check

_ATOM_START = set("01XELCSPYDpad(")


@dataclass
class _Token:
    kind: str  # "atom", "func", "op", "lparen", "rparen", "nat", "colon", "end"
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)

    def peek_atom_start(j):
        while j < n and text[j].isspace():
            j += 1
        return j < n and text[j] in _ATOM_START

    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+*&():":
            kind = {
                "+": "op",
                "*": "op",
                "&": "op",
                "(": "lparen",
                ")": "rparen",
                ":": "colon",
            }[c]
            tokens.append(_Token(kind, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("nat", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word in ("E", "L") and j < n and text[j] == "+" and not peek_atom_start(j + 1):
                tokens.append(_Token("atom", word + "+", i))
                i = j + 1
                continue
            tokens.append(_Token("word", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


_FUNCS = {"Y", "D", "pt", "adjL", "adjR", "dL"}
_WORD_ATOMS = {
    "X": X,
    "E": Exp,
    "L": Lin,
    "C": Cyc,
    "S": Perm,
    "P": Subsets,
    "o": None,  # operator, handled in term parsing
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(
                f"unexpected {t.text!r}", t.offset, (text,) if text else (kind,)
            )
        return self.take()

    # expr := term { "+" term }
    def expr(self) -> SpeciesExpr:
        out = self.term()
        while self.peek().kind == "op" and self.peek().text == "+":
            self.take()
            out = Sum(out, self.term())
        return out

    # term := factor { ("*" | "&") factor }
    def term(self) -> SpeciesExpr:
        out = self.factor()
        while self.peek().kind == "op" and self.peek().text in ("*", "&"):
            op = self.take().text
            rhs = self.factor()
            out = Cauchy(out, rhs) if op == "*" else Hadamard(out, rhs)
        return out

    # factor := atom [ "o" factor ]
    def factor(self) -> SpeciesExpr:
        out = self.atom()
        t = self.peek()
        if t.kind == "word" and t.text == "o":
            self.take()
            return Substitute(out, self.factor())
        return out

    def atom(self) -> SpeciesExpr:
        t = self.peek()
        if t.kind == "nat" and t.text in ("0", "1"):
            self.take()
            return Zero() if t.text == "0" else One()
        if t.kind == "lparen":
            self.take()
            inner = self.expr()
            self.expect("rparen")
            return inner
        if t.kind == "atom":  # E+ / L+
            self.take()
            return ExpPlus() if t.text == "E+" else LinPlus()
        if t.kind == "word":
            word = t.text
            if word in _FUNCS:
                self.take()
                self.expect("lparen")
                if word == "Y":
                    num = self.expect("nat")
                    self.expect("rparen")
                    return Representable(int(num.text))
                inner = self.expr()
                self.expect("rparen")
                return {
                    "D": Derive,
                    "pt": Pointing,
                    "adjL": AdjL,
                    "adjR": AdjR,
                    "dL": DeriveL,
                }[word](inner)
            if word in _WORD_ATOMS and word != "o":
                self.take()
                return _WORD_ATOMS[word]()
        raise ParseError(
            f"expected an atom, found {t.text!r}",
            t.offset,
            ("0", "1", "X", "E", "E+", "L", "L+", "C", "S", "P", "Y(", "D(", "pt(",
             "adjL(", "adjR(", "dL(", "("),
        )


def parse_expr(text: str) -> SpeciesExpr:
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(text)
    out = p.expr()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.offset)
    return out


_PRECEDENCE = {"sum": 0, "prod": 1, "subst": 2, "atom": 3}


def _level(e: SpeciesExpr) -> str:
    if isinstance(e, Sum):
        return "sum"
    if isinstance(e, (Cauchy, Hadamard)):
        return "prod"
    if isinstance(e, Substitute):
        return "subst"
    return "atom"


def render(e: SpeciesExpr) -> str:
    """Canonical surface form; parse(render(e)) == e for grammar-covered
    expressions."""

    def wrap(child, minimum):
        s = render(child)
        return f"({s})" if _PRECEDENCE[_level(child)] < _PRECEDENCE[minimum] else s

    if isinstance(e, Zero):
        return "0"
    if isinstance(e, One):
        return "1"
    if isinstance(e, X):
        return "X"
    if isinstance(e, Exp):
        return "E"
    if isinstance(e, ExpPlus):
        return "E+"
    if isinstance(e, Lin):
        return "L"
    if isinstance(e, LinPlus):
        return "L+"
    if isinstance(e, Cyc):
        return "C"
    if isinstance(e, Perm):
        return "S"
    if isinstance(e, Subsets):
        return "P"
    if isinstance(e, Representable):
        return f"Y({e.k})"
    # "+", "*" and "&" parse left-associatively, so right operands at the
    # same level need parentheses to round-trip
    if isinstance(e, Sum):
        return f"{wrap(e.f, 'sum')}+{wrap(e.g, 'prod')}"
    if isinstance(e, Cauchy):
        return f"{wrap(e.f, 'prod')}*{wrap(e.g, 'subst')}"
    if isinstance(e, Hadamard):
        return f"{wrap(e.f, 'prod')}&{wrap(e.g, 'subst')}"
    if isinstance(e, Substitute):
        # the left operand of "o" must sit at atom level in the grammar
        return f"{wrap(e.f, 'atom')} o {wrap(e.g, 'subst')}"
    if isinstance(e, Derive):
        return f"D({render(e.f)})"
    if isinstance(e, Pointing):
        return f"pt({render(e.f)})"
    if isinstance(e, AdjL):
        return f"adjL({render(e.f)})"
    if isinstance(e, AdjR):
        return f"adjR({render(e.f)})"
    if isinstance(e, DeriveL):
        return f"dL({render(e.f)})"
    if isinstance(e, (TruncLeft, TruncRight, Table)):
        raise ValueError(f"{type(e).__name__} has no surface syntax")
    raise TypeError(f"not a species expression: {e!r}")


def parse_operator(text: str) -> diffeq.DiffOperator:
    """Parse an operator specification "COEFF:ORDER + ... [+ CONST]"."""
    if not text.strip():
        raise ParseError("empty operator specification", 0)
    p = _Parser(text)
    terms = []
    constants = []
    while True:
        coeff = p.term()
        t = p.peek()
        if t.kind == "colon":
            p.take()
            num = p.expect("nat")
            order = int(num.text)
            if order == 0 and isinstance(coeff, One) or (
                order == 0 and isinstance(coeff, Representable) and coeff.k == 0
            ):
                constants.append(coeff)
            else:
                terms.append((coeff, order))
        else:
            constants.append(coeff)
        t = p.peek()
        if t.kind == "end":
            break
        if t.kind == "op" and t.text == "+":
            p.take()
            continue
        raise ParseError(f"unexpected {t.text!r} in operator", t.offset, ("+", ":"))
    constant = None
    for c in constants:
        constant = c if constant is None else Sum(constant, c)
    return diffeq.DiffOperator(tuple(terms), constant)


# ---------------------------------------------------------------------------
# Command dispatch


def _json_out(command, inputs, horizon, result, diagnostics=()):
    doc = {
        "command": command,
        "inputs": inputs,
        "horizon": horizon,
        "result": result,
        "diagnostics": list(diagnostics),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, command, inputs, horizon, result_json, result_text, out):
    if args.json:
        out.write(_json_out(command, inputs, horizon, result_json))
    else:
        out.write(result_text + "\n")


def _cmd_coeffs(args, out):
    e = parse_expr(args.expr)
    seq = counting.count_seq(e, args.upto)
    _emit(args, "coeffs", {"expr": args.expr}, args.upto, list(seq.coeffs), seq.render(), out)


def _cmd_egf(args, out):
    e = parse_expr(args.expr)
    seq = counting.egf(e, args.upto)
    _emit(
        args,
        "egf",
        {"expr": args.expr},
        args.upto,
        [str(c) for c in seq.coeffs],
        seq.render(),
        out,
    )


def _cmd_enumerate(args, out):
    e = parse_expr(args.expr)
    data = enumerate_degree(e, args.degree, cap=args.limit)
    encs = [enc_to_json(s) for s in data.structures]
    text = "\n".join(
        [f"{len(encs)} structure(s) at degree {args.degree}"]
        + [json.dumps(s, separators=(",", ":")) for s in encs]
    )
    _emit(args, "enumerate", {"expr": args.expr, "degree": args.degree}, None, encs, text, out)


def _cmd_orbits(args, out):
    e = parse_expr(args.expr)
    data = enumerate_degree(e, args.degree, cap=args.limit)
    from .groups import orbits as group_orbits

    rows = []
    for orb in group_orbits(data.action):
        stab = stabilizer(data.action, orb.representative)
        rows.append(
            {
                "size": len(orb.points),
                "representative": enc_to_json(orb.representative),
                "stabilizer_order": len(stab),
            }
        )
    text = "\n".join(
        f"orbit size={r['size']} stabilizer={r['stabilizer_order']} "
        f"rep={json.dumps(r['representative'], separators=(',', ':'))}"
        for r in rows
    )
    _emit(args, "orbits", {"expr": args.expr, "degree": args.degree}, None, rows, text, out)


def _cmd_iso(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    res = iso_check(f, g, args.upto)
    verdict = "true" if res.isomorphic else f"false (witness degree {res.witness_degree})"
    text = f"isomorphic up to degree {args.upto}: {verdict}"
    _emit(
        args,
        "iso",
        {"left": args.left, "right": args.right},
        args.upto,
        {"isomorphic": res.isomorphic, "witness_degree": res.witness_degree},
        text,
        out,
    )


def _cmd_natcount(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    per_degree, cumulative = transforms.count_nat(f, g, args.upto)
    text = ",".join(str(v) for v in per_degree) + f"; cumulative {cumulative}"
    _emit(
        args,
        "natcount",
        {"left": args.left, "right": args.right},
        args.upto,
        {"per_degree": list(per_degree), "cumulative": cumulative},
        text,
        out,
    )


def _cmd_natenum(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    nats = transforms.enumerate_nat(f, g, args.upto, args.limit)
    payload = [transforms.nat_to_json(t) for t in nats]
    text = "\n".join(
        [f"{len(nats)} transformation(s)"]
        + [json.dumps(p, sort_keys=True, separators=(",", ":")) for p in payload]
    )
    _emit(
        args,
        "natenum",
        {"left": args.left, "right": args.right},
        args.upto,
        payload,
        text,
        out,
    )


def _cmd_suite(args, out):
    names = (args.name,) if args.name else None
    report = transforms.canonical_iso_suite(args.upto, names=names)
    lines = report.lines()
    payload = []
    for e in report.entries:
        row = {
            "name": e.name,
            "args": e.args,
            "horizon": e.horizon,
            "passed": e.passed,
            "witness_degree": e.witness_degree,
        }
        if not e.passed and e.detail:
            # the stabilizer-class signatures of the two failing actions
            row["detail"] = [repr(side) for side in e.detail]
        payload.append(row)
    _emit(args, "suite", {"name": args.name}, args.upto, payload, "\n".join(lines), out)


def _cmd_monoid(args, out):
    N = args.upto
    if args.which == "lin":
        mu = transforms.lin_concat_mu(N)
        report = transforms.check_monoid(Lin(), mu, ("lin", ()), N)
    else:
        mu = transforms.exp_mu(N)
        report = transforms.check_monoid(Exp(), mu, ("set", ()), N)
    text = "monoid laws: pass" if report.ok else (
        "monoid laws: FAIL " + ", ".join(f"{law}@{deg}" for law, deg in report.failures)
    )
    _emit(
        args,
        "monoid",
        {"which": args.which},
        N,
        {"ok": report.ok, "failures": [list(f) for f in report.failures]},
        text,
        out,
    )


def _cmd_algtensor(args, out):
    N = args.upto
    a = transforms.exp_algebra(N)
    product = transforms.tensor_partial_algebras(a, a, N)
    natural = transforms.check_naturality(product.xi)
    unit = transforms.tensor_partial_algebras(a, transforms.one_algebra(N), N)
    unit_ok = iso_check(unit.carrier, a.carrier, N).isomorphic
    left = transforms.tensor_partial_algebras(product, a, N)
    right = transforms.tensor_partial_algebras(a, product, N)
    assoc_ok = iso_check(left.carrier, right.carrier, min(N, 3)).isomorphic
    ok = natural and unit_ok and assoc_ok
    text = (
        f"tensor algebra on E*E: naturality={'pass' if natural else 'fail'}, "
        f"unit={'pass' if unit_ok else 'fail'}, associativity={'pass' if assoc_ok else 'fail'}"
    )
    _emit(
        args,
        "algtensor",
        {},
        N,
        {"naturality": natural, "unit": unit_ok, "associativity": assoc_ok, "ok": ok},
        text,
        out,
    )


_DYNAMICS = {
    "adjL": automata.AdjLDyn,
    "derive": automata.DeriveDyn,
    "pointing": automata.PointingDyn,
    "deriveL": automata.DeriveLDyn,
}


def _parse_dynamics(args):
    if args.dyn == "tensor":
        if not args.by:
            raise ParseError("tensor dynamics needs --by EXPR", 0)
        return automata.TensorBy(parse_expr(args.by))
    return _DYNAMICS[args.dyn]()


def _cmd_terminal(args, out):
    dyn = _parse_dynamics(args)
    B = parse_expr(args.output)
    seq = automata.terminal_counts(dyn, B, args.upto, moore=args.moore)
    _emit(
        args,
        "terminal",
        {"dyn": args.dyn, "by": args.by, "output": args.output, "moore": args.moore},
        args.upto,
        list(seq.coeffs),
        seq.render(),
        out,
    )


def _cmd_homday(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    seq = automata.hom_day_counts(f, g, args.upto)
    _emit(
        args,
        "homday",
        {"left": args.left, "right": args.right},
        args.upto,
        list(seq.coeffs),
        seq.render(),
        out,
    )


def _cmd_solve(args, out):
    D = parse_operator(args.op)
    report = diffeq.adamek_chain(D, args.upto, args.max_iter)
    lines = [f"iterate {i}: {s.render()}" for i, s in enumerate(report.iterates)]
    if report.converged:
        lines.append(f"Converged: {report.limit.render()}")
        lines.append(f"fixpoint contact: {report.fixpoint_contact}")
    else:
        lines.append(f"Diverged at degree {report.witness}")
    payload = {
        "iterates": [list(s.coeffs) for s in report.iterates],
        "converged": report.converged,
        "limit": list(report.limit.coeffs) if report.limit else None,
        "witness": report.witness,
        "fixpoint_contact": str(report.fixpoint_contact)
        if report.fixpoint_contact is not None
        else None,
    }
    _emit(args, "solve", {"op": args.op}, args.upto, payload, "\n".join(lines), out)


def _parse_counts(text: str):
    """A comma-separated list of nonnegative integers, as for --seq."""
    vals, offset = [], 0
    for piece in text.split(","):
        item = piece.strip()
        try:
            if not item.isdecimal():
                raise ValueError(item)
            vals.append(int(item))  # ValueError beyond int()'s digit limit
        except ValueError:
            start = offset + len(piece) - len(piece.lstrip())
            raise ParseError(f"expected a nonnegative integer, found {item!r}", start) from None
        offset += len(piece) + 1
    return tuple(vals)


def _cmd_fixcheck(args, out):
    D = parse_operator(args.op)
    if args.expr:
        e = parse_expr(args.expr)
        x = counting.count_seq(e, args.upto + D.max_order)
    elif args.seq:
        x = counting.CountSeq(_parse_counts(args.seq))
    else:
        raise ParseError("fixcheck needs --expr or --seq", 0)
    order = diffeq.fixpoint_check(D, x, args.upto)
    text = f"contact order: {order}"
    _emit(
        args,
        "fixcheck",
        {"op": args.op, "expr": args.expr, "seq": args.seq},
        args.upto,
        {"contact_order": str(order)},
        text,
        out,
    )


def _nat(text: str) -> int:
    """argparse type of horizons, degrees, iteration caps and limits."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors exit 2 with a one-line message, like parse errors
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="espece",
        description="Exact species calculator: counts, structures, equivariant "
        "maps, machine terminals, and differential fixpoints.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, upto=True):
        if upto:
            p.add_argument("--upto", type=_nat, default=5, help="horizon (default 5)")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.add_argument("--limit", type=_nat, default=100000, help="enumeration cap")
        p.add_argument("--max-iter", type=_nat, default=None, dest="max_iter")
        p.add_argument("--seed", type=int, default=None, help="reserved; unused")

    p = sub.add_parser("coeffs", help="counting sequence of an expression")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("egf", help="exponential generating coefficients")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_egf)

    p = sub.add_parser("enumerate", help="all structures at one degree")
    p.add_argument("expr")
    p.add_argument("--degree", type=_nat, required=True)
    common(p, upto=False)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("orbits", help="orbit decomposition at one degree")
    p.add_argument("expr")
    p.add_argument("--degree", type=_nat, required=True)
    common(p, upto=False)
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("iso", help="degreewise action isomorphism check")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("natcount", help="count truncated natural transformations")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=_cmd_natcount)

    p = sub.add_parser("natenum", help="enumerate truncated natural transformations")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=_cmd_natenum)

    p = sub.add_parser("suite", help="run the canonical isomorphism suite")
    p.add_argument("--name", choices=transforms.SUITE_NAMES, default=None)
    common(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("monoid", help="check a built-in Cauchy monoid")
    p.add_argument("which", choices=("lin", "exp"))
    common(p)
    p.set_defaults(fn=_cmd_monoid)

    p = sub.add_parser("algtensor", help="tensor the exponential derivative algebra")
    common(p)
    p.set_defaults(fn=_cmd_algtensor)

    p = sub.add_parser("terminal", help="terminal machine counting sequence")
    p.add_argument("--dyn", choices=("adjL", "derive", "pointing", "deriveL", "tensor"),
                   required=True)
    p.add_argument("--by", default=None, help="tensor dynamics expression")
    p.add_argument("--moore", action="store_true")
    p.add_argument("output")
    common(p)
    p.set_defaults(fn=_cmd_terminal)

    p = sub.add_parser("homday", help="convolution internal-hom counts")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=_cmd_homday)

    p = sub.add_parser("solve", help="iterate an operator's fixpoint chain")
    p.add_argument("--op", required=True)
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("fixcheck", help="contact order of a sequence with its image")
    p.add_argument("--op", required=True)
    p.add_argument("--expr", default=None)
    p.add_argument("--seq", default=None)
    common(p)
    p.set_defaults(fn=_cmd_fixcheck)

    return ap


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.fn(args, out)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
