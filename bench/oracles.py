"""Independent checks of request outputs, by routes other than the program's.

The golden hashes pin every output byte; these checks also say that the
pinned outputs are right.  Each one recomputes a known closed form:

- ``E o C``, ``S`` and ``L`` count n!, and ``P`` counts 2^n;
- a k-term sum of ``X`` counts k at degree 1 and 0 elsewhere;
- ``D^k(E)`` counts 1 at every degree;
- the limit of ``solve "1:0 + X:0"`` (G = 1 + X.G) is n!;
- ``iso S "E o C"`` holds, and ``iso S L`` fails at degree 2.
"""

import json
import math
import re

_CLOSED_FORMS = {
    "E o C": math.factorial,
    "S": math.factorial,
    "L": math.factorial,
    "P": lambda n: 2**n,
}


def _option(argv, name):
    return argv[argv.index(name) + 1]


def _counts_of(expr, n):
    """Closed-form count of expr at degree n, or None if none is known."""
    if expr in _CLOSED_FORMS:
        return _CLOSED_FORMS[expr](n)
    if re.fullmatch(r"X(\+X)*", expr):
        return expr.count("X") if n == 1 else 0
    if re.fullmatch(r"(D\()*E\)*", expr) and expr.count("(") == expr.count(")"):
        return 1
    return None


def oracle_for(argv):
    """A check of the JSON result of this request, or None.

    The check takes the parsed ``result`` field and returns None when it
    holds, else a one-line message.
    """
    if "--json" not in argv:
        return None
    command = argv[0]
    if command == "coeffs" and _counts_of(argv[1], 0) is not None:
        expr, horizon = argv[1], int(_option(argv, "--upto"))
        want = [_counts_of(expr, n) for n in range(horizon + 1)]
        return lambda got: None if got == want else f"counts of {expr} are not the closed form"
    if command == "solve" and _option(argv, "--op") == "1:0 + X:0":
        want = [math.factorial(n) for n in range(int(_option(argv, "--upto")) + 1)]
        return lambda got: None if got["limit"] == want else "limit of G = 1 + X.G is not n!"
    if command == "iso" and argv[1:3] == ["S", "E o C"]:
        return lambda got: None if got["isomorphic"] else "S and E o C reported not isomorphic"
    if command == "iso" and argv[1:3] == ["S", "L"]:
        return lambda got: (
            None
            if not got["isomorphic"] and got["witness_degree"] == 2
            else "S and L not told apart at degree 2"
        )
    return None


def check(argv, stdout):
    """Run the oracle of a request on its stdout; None when it holds or none applies."""
    oracle = oracle_for(list(argv))
    if oracle is None:
        return None
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON output: {exc}"
    try:
        return oracle(result)
    except (KeyError, TypeError, IndexError) as exc:
        return f"result has the wrong shape: {exc!r}"
