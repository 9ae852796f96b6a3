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

import json
import sys
import types

from . import automata, caches, counting, diffeq, transforms
from .errors import EngineError, ParseError
from .groups import orbits, symmetric_order
from .records import Record
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
    enumerate_degree,
)
from .transforms import iso_check

_ATOM_START = set("01XELCSPYDpad(")
_PUNCTUATION = {"+": "op", "*": "op", "&": "op", "(": "lparen", ")": "rparen", ":": "colon"}


class _Token(Record):
    kind: str  # "atom", "func", "op", "lparen", "rparen", "nat", "colon", "end"
    text: str
    offset: int

    # One token is built per token parsed, so it keeps a mutable object's
    # plain attribute stores; nothing assigns to a token once built.  Both
    # methods are restored: either one left to Record routes every store
    # through Python.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


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
        if c in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[c], c, i))
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


# The atoms and one-argument functions of the grammar; render reads them back.
_ATOMS = {
    "0": Zero,
    "1": One,
    "X": X,
    "E": Exp,
    "E+": ExpPlus,
    "L": Lin,
    "L+": LinPlus,
    "C": Cyc,
    "S": Perm,
    "P": Subsets,
}
_FUNCS = {"D": Derive, "pt": Pointing, "adjL": AdjL, "adjR": AdjR, "dL": DeriveL}
# Each level of "(" or "F(" costs four Python frames in the parser, so the
# cap keeps parsing far from the interpreter's recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # "(" and "F(" open around the current position

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

    # factor := atom [ "o" factor ], read as a loop so a long chain of "o"
    # costs no recursion
    def factor(self) -> SpeciesExpr:
        atoms = [self.atom()]
        while self.peek().kind == "word" and self.peek().text == "o":
            self.take()
            atoms.append(self.atom())
        out = atoms.pop()
        while atoms:
            out = Substitute(atoms.pop(), out)
        return out

    def atom(self) -> SpeciesExpr:
        t = self.peek()
        if t.text in _ATOMS:  # "0"/"1" are nat tokens, "E+"/"L+" atom tokens
            self.take()
            return _ATOMS[t.text]()
        if t.kind == "word" and t.text == "Y":
            self.take()
            self.expect("lparen")
            num = self.expect("nat")
            self.expect("rparen")
            return Representable(int(num.text))
        if t.kind == "lparen" or t.kind == "word" and t.text in _FUNCS:
            self.take()
            if t.kind == "word":
                self.expect("lparen")
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", t.offset)
            inner = self.expr()
            self.expect("rparen")
            self.depth -= 1
            return _FUNCS[t.text](inner) if t.kind == "word" else inner
        raise ParseError(
            f"expected an atom, found {t.text!r}",
            t.offset,
            (*_ATOMS, "Y(", *(f"{name}(" for name in _FUNCS), "("),
        )


@caches.memo
def parse_expr(text: str) -> SpeciesExpr:
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(text)
    out = p.expr()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.offset)
    return out


_SUM, _PROD, _SUBST, _ATOM = range(4)  # binding levels of the grammar
_LEVEL = {Sum: _SUM, Cauchy: _PROD, Hadamard: _PROD, Substitute: _SUBST}
# Each infix node's spelling and the least level of each operand: "+", "*"
# and "&" parse left-associatively, so right operands at the same level need
# parentheses, and the left operand of "o" must sit at atom level.
_INFIX = {
    Sum: ("+", _SUM, _PROD),
    Cauchy: ("*", _PROD, _SUBST),
    Hadamard: ("&", _PROD, _SUBST),
    Substitute: (" o ", _ATOM, _SUBST),
}
_ATOM_NAMES = {node: text for text, node in _ATOMS.items()}
_FUNC_NAMES = {node: name for name, node in _FUNCS.items()}


def render(e: SpeciesExpr) -> str:
    """Canonical surface form; parse(render(e)) == e for grammar-covered
    expressions.  An explicit stack holds literal text and pending (node,
    least binding level) pairs, so depth is not bounded by recursion."""
    out = []
    stack = [(e, _SUM)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, minimum = item
        kind = type(node)
        if _LEVEL.get(kind, _ATOM) < minimum:
            out.append("(")
            stack.append(")")
        if kind in _ATOM_NAMES:
            out.append(_ATOM_NAMES[kind])
        elif kind is Representable:
            out.append(f"Y({node.k})")
        elif kind in _INFIX:
            op, left, right = _INFIX[kind]
            stack += [(node.g, right), op, (node.f, left)]
        elif kind in _FUNC_NAMES:
            out.append(f"{_FUNC_NAMES[kind]}(")
            stack += [")", (node.f, _SUM)]
        elif isinstance(node, (TruncLeft, TruncRight, Table)):
            raise ValueError(f"{kind.__name__} has no surface syntax")
        else:
            raise TypeError(f"not a species expression: {node!r}")
    return "".join(out)


@caches.memo
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


class _Raw(str):
    """Literal JSON text on ``_dumps``'s stack, unlike a string value."""


_COMMA, _LIST, _END_LIST, _DICT, _END_DICT = map(_Raw, ",[]{}")


def _dumps(doc, sort_keys=False) -> str:
    """``doc`` as compact JSON text.

    The C encoder recurses once per nesting level, so a document nested
    deeper than the recursion limit (the encodings of a long sum) is
    written on an explicit stack instead, to the same text.
    """
    try:
        return json.dumps(doc, sort_keys=sort_keys, separators=(",", ":"))
    except RecursionError:
        pass
    out, stack, scalars = [], [doc], {}
    while stack:
        item = stack.pop()
        if isinstance(item, _Raw):
            out.append(item)
        elif isinstance(item, (list, tuple)):
            stack.append(_END_LIST)
            for i in range(len(item) - 1, 0, -1):
                stack += (item[i], _COMMA)
            stack += (item[0], _LIST) if item else (_LIST,)
        elif isinstance(item, dict):
            stack.append(_END_DICT)
            keys = sorted(item) if sort_keys else list(item)
            for i in range(len(keys) - 1, -1, -1):
                stack += (item[keys[i]], _Raw(("," if i else "") + json.dumps(str(keys[i])) + ":"))
            stack.append(_DICT)
        else:  # one text per distinct scalar; (type, value) keeps 1 and True apart
            text = scalars.get((type(item), item))
            if text is None:
                text = scalars[type(item), item] = json.dumps(item)
            out.append(text)
    return "".join(out)


def _emit(args, inputs, horizon, result_json, text, out):
    """Write the JSON envelope or, without --json, ``text()``: the text is
    rendered only when it is printed.  The newline is written on its own,
    so a large document is not copied to append it."""
    if args.json:
        doc = {
            "command": args.command,
            "inputs": inputs,
            "horizon": horizon,
            "result": result_json,
            "diagnostics": [],
        }
        out.write(_dumps(doc, sort_keys=True))
        out.write("\n")
    else:
        out.write(text() + "\n")


def _cmd_coeffs(args, out):
    e = parse_expr(args.expr)
    seq = counting.count_seq(e, args.upto)
    _emit(args, {"expr": args.expr}, args.upto, list(seq.coeffs), seq.render, out)


def _cmd_egf(args, out):
    e = parse_expr(args.expr)
    seq = counting.egf(e, args.upto)
    _emit(
        args,
        {"expr": args.expr},
        args.upto,
        [str(c) for c in seq.coeffs],
        seq.render,
        out,
    )


def _cmd_enumerate(args, out):
    e = parse_expr(args.expr)
    encs = enumerate_degree(e, args.degree, cap=args.limit).points

    def text():
        head = f"{len(encs)} structure(s) at degree {args.degree}"
        return "\n".join([head] + [_dumps(s) for s in encs])

    _emit(args, {"expr": args.expr, "degree": args.degree}, None, encs, text, out)


def _cmd_orbits(args, out):
    e = parse_expr(args.expr)
    parts = orbits(enumerate_degree(e, args.degree, cap=args.limit))
    # orbit-stabilizer: |Stab(x)| = n!/|orbit of x|; S_n's cap applies
    # only when there is a point to stabilize
    order = symmetric_order(args.degree) if parts else 0
    rows = [
        {
            "size": len(orb.points),
            "representative": orb.representative,
            "stabilizer_order": order // len(orb.points),
        }
        for orb in parts
    ]

    def text():
        return "\n".join(
            f"orbit size={r['size']} stabilizer={r['stabilizer_order']} "
            f"rep={_dumps(r['representative'])}"
            for r in rows
        )

    _emit(args, {"expr": args.expr, "degree": args.degree}, None, rows, text, out)


def _cmd_iso(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    res = iso_check(f, g, args.upto)
    verdict = "true" if res.isomorphic else f"false (witness degree {res.witness_degree})"
    _emit(
        args,
        {"left": args.left, "right": args.right},
        args.upto,
        {"isomorphic": res.isomorphic, "witness_degree": res.witness_degree},
        lambda: f"isomorphic up to degree {args.upto}: {verdict}",
        out,
    )


def _cmd_natcount(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    per_degree, cumulative = transforms.count_nat(f, g, args.upto)
    _emit(
        args,
        {"left": args.left, "right": args.right},
        args.upto,
        {"per_degree": list(per_degree), "cumulative": cumulative},
        lambda: ",".join(str(v) for v in per_degree) + f"; cumulative {cumulative}",
        out,
    )


def _cmd_natenum(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    nats = transforms.enumerate_nat(f, g, args.upto, args.limit)
    payload = [transforms.nat_to_json(t) for t in nats]

    def text():
        head = f"{len(nats)} transformation(s)"
        return "\n".join([head] + [_dumps(p, sort_keys=True) for p in payload])

    _emit(args, {"left": args.left, "right": args.right}, args.upto, payload, text, out)


def _cmd_suite(args, out):
    names = (args.name,) if args.name else None
    report = transforms.canonical_iso_suite(args.upto, names=names)
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
    _emit(args, {"name": args.name}, args.upto, payload, lambda: "\n".join(report.lines()), out)


def _cmd_monoid(args, out):
    N = args.upto
    if args.which == "lin":
        mu = transforms.lin_concat_mu(N)
        report = transforms.check_monoid(Lin(), mu, ("lin", ()), N)
    else:
        mu = transforms.exp_mu(N)
        report = transforms.check_monoid(Exp(), mu, ("set", ()), N)

    def text():
        if report.ok:
            return "monoid laws: pass"
        return "monoid laws: FAIL " + ", ".join(f"{law}@{deg}" for law, deg in report.failures)

    _emit(
        args,
        {"which": args.which},
        N,
        {"ok": report.ok, "failures": [list(f) for f in report.failures]},
        text,
        out,
    )


def _cmd_algtensor(args, out):
    N = args.upto
    a = transforms.exp_algebra(N)
    # tensor_partial_algebras raises InvalidAlgebra when xi is not natural
    product = transforms.tensor_partial_algebras(a, a, N)
    unit = transforms.tensor_partial_algebras(a, transforms.one_algebra(N), N)
    unit_ok = iso_check(unit.carrier, a.carrier, N).isomorphic
    left = transforms.tensor_partial_algebras(product, a, N)
    right = transforms.tensor_partial_algebras(a, product, N)
    assoc_ok = iso_check(left.carrier, right.carrier, min(N, 3)).isomorphic
    ok = unit_ok and assoc_ok

    def text():
        return (
            "tensor algebra on E*E: naturality=pass, "
            f"unit={'pass' if unit_ok else 'fail'}, "
            f"associativity={'pass' if assoc_ok else 'fail'}"
        )

    _emit(
        args,
        {},
        N,
        {"naturality": True, "unit": unit_ok, "associativity": assoc_ok, "ok": ok},
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
        if args.by is None:
            raise ParseError("tensor dynamics needs --by EXPR", 0)
        return automata.TensorBy(parse_expr(args.by))
    if args.by is not None:
        raise ParseError("--by applies only to tensor dynamics", 0)
    return _DYNAMICS[args.dyn]()


def _cmd_terminal(args, out):
    dyn = _parse_dynamics(args)
    B = parse_expr(args.output)
    seq = automata.terminal_counts(dyn, B, args.upto, moore=args.moore)
    _emit(
        args,
        {"dyn": args.dyn, "by": args.by, "output": args.output, "moore": args.moore},
        args.upto,
        list(seq.coeffs),
        seq.render,
        out,
    )


def _cmd_homday(args, out):
    f, g = parse_expr(args.left), parse_expr(args.right)
    seq = automata.hom_day_counts(f, g, args.upto)
    _emit(
        args,
        {"left": args.left, "right": args.right},
        args.upto,
        list(seq.coeffs),
        seq.render,
        out,
    )


def _cmd_solve(args, out):
    D = parse_operator(args.op)
    report = diffeq.adamek_chain(D, args.upto, args.max_iter)

    def text():
        # once the stable prefix passes N the iterates are one object:
        # render each distinct one once
        lines, last, shown = [], None, ""
        for i, s in enumerate(report.iterates):
            if s is not last:
                last, shown = s, s.render()
            lines.append(f"iterate {i}: {shown}")
        if report.converged:
            lines.append(f"Converged: {report.limit.render()}")
            lines.append(f"fixpoint contact: {report.fixpoint_contact}")
        else:
            lines.append(f"Diverged at degree {report.witness}")
        return "\n".join(lines)

    payload = {
        "iterates": [list(s.coeffs) for s in report.iterates],
        "converged": report.converged,
        "limit": list(report.limit.coeffs) if report.limit else None,
        "witness": report.witness,
        "fixpoint_contact": str(report.fixpoint_contact)
        if report.fixpoint_contact is not None
        else None,
    }
    _emit(args, {"op": args.op}, args.upto, payload, text, out)


def _parse_counts(text: str):
    """A comma-separated list of nonnegative integers, as for --seq."""
    vals, offset = [], 0
    for piece in text.split(","):
        item = piece.strip()
        try:
            if not item.isdecimal():
                raise ValueError(item)
            vals.append(int(item))  # outside main, ValueError beyond int()'s digit limit
        except ValueError:
            start = offset + len(piece) - len(piece.lstrip())
            raise ParseError(f"expected a nonnegative integer, found {item!r}", start) from None
        offset += len(piece) + 1
    return tuple(vals)


def _cmd_fixcheck(args, out):
    if args.expr is not None and args.seq is not None:
        raise ParseError("fixcheck takes --expr or --seq, not both", 0)
    D = parse_operator(args.op)
    if args.expr is not None:
        e = parse_expr(args.expr)
        x = counting.count_seq(e, args.upto + D.max_order)
    elif args.seq is not None:
        x = counting.CountSeq(_parse_counts(args.seq))
    else:
        raise ParseError("fixcheck needs --expr or --seq", 0)
    order = diffeq.fixpoint_check(D, x, args.upto)
    _emit(
        args,
        {"op": args.op, "expr": args.expr, "seq": args.seq},
        args.upto,
        {"contact_order": str(order)},
        lambda: f"contact order: {order}",
        out,
    )


def _nat(text: str) -> int:
    """Type of horizons, degrees, iteration caps and limits."""
    if not text.isdecimal():
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


_REQUIRED = object()  # the default of an argument that must be given
# Every argument of a command: its type (str, _nat, a tuple of choices,
# or bool for a flag) and its default.  Positionals are required.
_ARGUMENTS = {
    **dict.fromkeys(("expr", "left", "right", "output"), (str, _REQUIRED)),
    "which": (("lin", "exp"), _REQUIRED),
    "--upto": (_nat, 5),
    "--json": (bool, False),
    "--degree": (_nat, _REQUIRED),
    "--limit": (_nat, 100000),
    "--max-iter": (_nat, None),
    "--name": (transforms.SUITE_NAMES, None),
    "--dyn": ((*_DYNAMICS, "tensor"), _REQUIRED),
    "--by": (str, None),
    "--moore": (bool, False),
    "--op": (str, _REQUIRED),
    "--expr": (str, None),
    "--seq": (str, None),
}
_UPTO = " --upto --json"
_AT_DEGREE = "expr --degree --json --limit"

# name -> (handler, summary, its positionals in order, then its options)
_COMMANDS = {
    "coeffs": (_cmd_coeffs, "counting sequence of an expression", "expr" + _UPTO),
    "egf": (_cmd_egf, "exponential generating coefficients", "expr" + _UPTO),
    "enumerate": (_cmd_enumerate, "all structures at one degree", _AT_DEGREE),
    "orbits": (_cmd_orbits, "orbit decomposition at one degree", _AT_DEGREE),
    "iso": (_cmd_iso, "degreewise action isomorphism check", "left right" + _UPTO),
    "natcount": (_cmd_natcount, "count truncated natural transformations", "left right" + _UPTO),
    "natenum": (
        _cmd_natenum, "enumerate truncated natural transformations", "left right --limit" + _UPTO
    ),
    "suite": (_cmd_suite, "run the canonical isomorphism suite", "--name" + _UPTO),
    "monoid": (_cmd_monoid, "check a built-in Cauchy monoid", "which" + _UPTO),
    "algtensor": (_cmd_algtensor, "tensor the exponential derivative algebra", _UPTO),
    "terminal": (
        _cmd_terminal, "terminal machine counting sequence", "output --dyn --by --moore" + _UPTO
    ),
    "homday": (_cmd_homday, "convolution internal-hom counts", "left right" + _UPTO),
    "solve": (_cmd_solve, "iterate an operator's fixpoint chain", "--op --max-iter" + _UPTO),
    "fixcheck": (
        _cmd_fixcheck, "contact order of a sequence with its image", "--op --expr --seq" + _UPTO
    ),
}


_HELP_HEAD = """usage: espece COMMAND [-h] ...

Exact species calculator: counts, structures, equivariant maps, machine
terminals and differential fixpoints.  A long option may be abbreviated to
any unique prefix and written --option=value; "--" ends the options.
"""


class _Usage(Exception):
    """A command line that _COMMANDS rejects: exit 2 with one line."""


class _Help(Exception):
    """-h or --help: print the usage text and exit 0."""


def _dest(word: str) -> str:
    """The attribute an argument is read into."""
    return word.lstrip("-").replace("-", "_")


def _value(word: str, text: str):
    kind = _ARGUMENTS[word][0]
    if isinstance(kind, tuple):
        if text not in kind:
            raise _Usage(f"argument {word}: invalid choice: {text!r} (choose from {kind})")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise _Usage(f"argument {word}: {exc}") from None


def _parse_args(argv):
    """Read argv against _COMMANDS into the attributes the handlers read.

    A word is an option when it starts with "--" or is "-h".  An option
    may carry "=value" and be abbreviated to any unique prefix; options may
    come before, between or after the positionals, the last repeat wins,
    and "--" ends the options.
    """
    name = argv[0] if argv else None
    if name in ("-h", "--h", "--he", "--hel", "--help"):
        raise _Help(_help())
    if name not in _COMMANDS:
        got = f"{name!r} is not a command" if argv else "a command is required"
        raise _Usage(f"{got}; choose from {', '.join(_COMMANDS)}")
    words = _COMMANDS[name][2].split()
    flags = [w for w in words if w[0] == "-"] + ["-h", "--help"]
    values = {"command": name, **{_dest(w): _ARGUMENTS[w][1] for w in words}}
    positionals, rest = [], iter(argv[1:])
    for arg in rest:
        if arg == "--":
            positionals += rest
        elif arg != "-h" and not arg.startswith("--"):
            positionals.append(arg)
        else:
            flag, eq, inline = arg.partition("=")
            hits = [flag] if flag in flags else [f for f in flags if f.startswith(flag)]
            if len(hits) != 1:
                raise _Usage(f"{'ambiguous' if hits else 'unrecognized'} option: {flag}")
            flag = hits[0]
            if flag in ("-h", "--help") or _ARGUMENTS[flag][0] is bool:
                if eq:
                    raise _Usage(f"argument {flag}: ignored explicit argument {inline!r}")
                if flag in ("-h", "--help"):
                    raise _Help(_help(name))
                values[_dest(flag)] = True
                continue
            if not eq:
                inline = next(rest, "--")
                if inline == "-h" or inline.startswith("--"):
                    raise _Usage(f"argument {flag}: expected one argument")
            values[_dest(flag)] = _value(flag, inline)
    todo = [w for w in words if w[0] != "-"]
    if len(positionals) > len(todo):
        raise _Usage(f"unrecognized arguments: {' '.join(positionals[len(todo):])}")
    values.update((word, _value(word, text)) for word, text in zip(todo, positionals))
    missing = [w for w in words if values[_dest(w)] is _REQUIRED]
    if missing:
        raise _Usage(f"the following arguments are required: {', '.join(missing)}")
    return types.SimpleNamespace(**values)


def _help(name=None) -> str:
    """Usage generated from _COMMANDS: one command's, or every command's."""
    lines = [] if name else [_HELP_HEAD]
    for command in [name] if name else _COMMANDS:
        words = [f"  espece {command} [-h]"]
        for w in _COMMANDS[command][2].split():
            kind, default = _ARGUMENTS[w]
            var = "N" if kind is _nat else _dest(w).upper()
            var = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else var
            word = w if kind is bool else f"{w} {var}" if w[0] == "-" else var
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines += [" ".join(words), f"      {_COMMANDS[command][1]}"]
    return "\n".join(lines)


def main(argv=None, out=None) -> int:
    """Run one command line; return its exit code.

    Exact integers print in full however long they are: the interpreter's
    limit on int/str conversion (Python 3.11, and 3.10 from 3.10.7) is
    lifted for the call and put back after it.  The memo tables are
    emptied first if they hold more than ``caches.CAP`` slots.
    """
    caches.check_cap()  # no computation is in flight between commands
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _main(argv, out)
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv, out)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv, out) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        _COMMANDS[args.command][0](args, out)
        return 0
    except _Help as exc:
        print(exc, file=out)
        return 0
    except _Usage as exc:
        print(f"espece: error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
