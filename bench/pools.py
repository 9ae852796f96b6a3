"""Fixed request pools of the benchmark, one argv list per request.

Every request goes through the public CLI contract, ``espece.cli.main``.
The seed of a run only orders these pools; it never adds a request, so
``golden.json`` covers every request a run can make.

Each request took at most about 2 s in a fresh process at the commit the
golden outputs were recorded from (2-core machine, Python 3.11).
"""

import shlex


def _sum_of_x(k):
    """A left-nested sum of k copies of X."""
    return "+".join(["X"] * k)


def _derive(k, inner):
    """k nested derivatives around an atom."""
    return "D(" * k + inner + ")" * k


# Counting requests at large horizons.  They reach the counting
# recurrences, the sequence layer and diffeq, and no structure
# enumeration: only the two small `homday` requests touch the group layer.
COUNT_POOL = (
    ("coeffs", "E o C", "--upto", "20"),
    ("coeffs", "E o C", "--upto", "24", "--json"),
    ("coeffs", "E o C", "--upto", "28"),
    ("coeffs", "E o C", "--upto", "32"),
    ("egf", "E o C", "--upto", "22"),
    ("egf", "L o (C + X)", "--upto", "20"),
    ("egf", "L o (C + X)", "--upto", "24", "--json"),
    ("coeffs", "C o (E+)", "--upto", "24"),
    ("coeffs", "L o (E+)", "--upto", "28"),
    ("coeffs", "S o (C)", "--upto", "22"),
    ("coeffs", "P o (E+)", "--upto", "26"),
    ("coeffs", "E o (X + X*X)", "--upto", "26"),
    ("coeffs", "(E o C) * L", "--upto", "22"),
    ("egf", "D(D(D(D(D(L o (C + X))))))", "--upto", "16"),
    ("coeffs", "S", "--upto", "40", "--json"),
    ("coeffs", "L", "--upto", "40", "--json"),
    ("coeffs", "P", "--upto", "60", "--json"),
    ("coeffs", "pt(C) & L + adjL(E) * D(S)", "--upto", "60"),
    ("coeffs", "adjR(E)", "--upto", "15"),
    ("coeffs", _sum_of_x(50), "--upto", "10", "--json"),
    ("coeffs", _sum_of_x(100), "--upto", "4", "--json"),
    ("coeffs", _sum_of_x(100), "--upto", "10"),
    ("coeffs", _sum_of_x(200), "--upto", "4", "--json"),
    ("coeffs", _sum_of_x(200), "--upto", "10"),
    ("coeffs", _sum_of_x(300), "--upto", "4", "--json"),
    ("egf", _sum_of_x(300), "--upto", "6"),
    ("coeffs", _derive(30, "E"), "--upto", "30", "--json"),
    ("coeffs", _derive(80, "E"), "--upto", "10", "--json"),
    ("coeffs", _derive(80, "E"), "--upto", "30"),
    ("coeffs", _derive(150, "E"), "--upto", "10", "--json"),
    ("coeffs", _derive(150, "C"), "--upto", "20"),
    ("solve", "--op", "1:0 + X:0", "--upto", "30", "--json"),
    ("solve", "--op", "1:0 + X:0", "--upto", "60"),
    ("solve", "--op", "E + X:0", "--upto", "100", "--json"),
    ("solve", "--op", "E + X:0", "--upto", "60"),
    ("solve", "--op", "X:1 + 1:0", "--upto", "40"),
    ("solve", "--op", "E + X*X:0", "--upto", "80"),
    ("fixcheck", "--op", "1:1", "--expr", "E", "--upto", "100"),
    ("fixcheck", "--op", "1:0 + X:0", "--seq", "1,1,2,6,24,120", "--upto", "5"),
    ("fixcheck", "--op", "E + X:0", "--expr", "L", "--upto", "50"),
    ("fixcheck", "--op", "1:0 + X:0", "--expr", "L", "--upto", "120", "--json"),
    ("terminal", "--dyn", "adjL", "E", "--upto", "20"),
    ("terminal", "--dyn", "adjL", "E+ + X", "--upto", "20", "--json"),
    ("terminal", "--dyn", "derive", "E", "--upto", "10"),
    ("homday", "X", "L", "--upto", "4"),
    ("homday", "X", "E", "--upto", "5", "--json"),
    # expected exit 1: DivergentProduct, product bound, NotSupported
    ("terminal", "--dyn", "adjL", "L", "--upto", "4"),
    ("terminal", "--dyn", "derive", "E+X", "--upto", "6"),
    ("terminal", "--dyn", "pointing", "E", "--upto", "4"),
    # expected exit 2: malformed expressions and a malformed argument
    ("coeffs", "E o (", "--upto", "4"),
    ("egf", "C * ", "--upto", "4"),
    ("coeffs", "E", "--upto", "four"),
)

# Structure and action requests at degrees 4-6.  They reach enumeration,
# relabeling, the group algorithms and transforms, and barely count.
ACTION_POOL = (
    ("iso", "S", "E o C", "--upto", "4", "--json"),
    ("iso", "S", "E o C", "--upto", "5"),
    ("iso", "S", "E o C", "--upto", "6", "--json"),
    ("iso", "S", "L", "--upto", "4", "--json"),
    ("iso", "P", "E*E", "--upto", "5"),
    ("iso", "P", "E*E", "--upto", "6"),
    ("iso", "D(L)", "L*L", "--upto", "5"),
    ("iso", "D(C)", "L", "--upto", "6"),
    ("iso", "C", "L+", "--upto", "5"),
    ("natcount", "C", "D(C)", "--upto", "4"),
    ("natcount", "E", "P", "--upto", "6"),
    ("natcount", "L", "S", "--upto", "4", "--json"),
    ("natcount", "E*E", "P", "--upto", "5"),
    ("natenum", "C", "D(C)", "--upto", "3"),
    ("natenum", "E", "P", "--upto", "3", "--json"),
    ("orbits", "P", "--degree", "5"),
    ("orbits", "P", "--degree", "6", "--json"),
    ("orbits", "S", "--degree", "5"),
    ("orbits", "E o C", "--degree", "5"),
    ("orbits", "E o C", "--degree", "6"),
    ("orbits", "L", "--degree", "5"),
    ("orbits", "C*E", "--degree", "6"),
    ("orbits", "L*L", "--degree", "4", "--json"),
    ("enumerate", "C", "--degree", "5"),
    ("enumerate", "E o E+", "--degree", "5", "--json"),
    ("enumerate", "P&C", "--degree", "4"),
    ("monoid", "lin", "--upto", "4"),
    ("monoid", "lin", "--upto", "5", "--json"),
    ("monoid", "exp", "--upto", "5"),
    ("algtensor", "--upto", "3"),
    ("algtensor", "--upto", "4", "--json"),
    ("suite", "--name", "leibniz", "--upto", "4"),
    ("suite", "--name", "chain_rule", "--upto", "4"),
    ("suite", "--name", "perm_decomp", "--upto", "5"),
    ("suite", "--name", "der_cyc", "--upto", "5"),
    ("suite", "--name", "der_perm", "--upto", "5", "--json"),
    ("suite", "--name", "napier", "--upto", "5"),
    ("suite", "--name", "commutation", "--upto", "5"),
    ("suite", "--name", "der_R", "--upto", "3", "--json"),
    ("suite", "--name", "R_der", "--upto", "5"),
    ("suite", "--name", "lin_free", "--upto", "5"),
    ("terminal", "--dyn", "tensor", "--by", "X", "E", "--upto", "3"),
    ("homday", "X", "L", "--upto", "6"),
    # expected exit 1: BudgetExceeded in the tensor hom factor
    ("terminal", "--dyn", "tensor", "--by", "X", "P", "--upto", "4"),
    # expected exit 2: malformed expression
    ("iso", "S", "E o", "--upto", "4"),
)

# The warm session serves every third request of each pool, so it keeps
# the mix of both while a session stays short enough to repeat in a run.
WARM_POOL = COUNT_POOL[::3] + ACTION_POOL[::3]

POOLS = {
    "count-cold": COUNT_POOL,
    "action-cold": ACTION_POOL,
    "session-warm": WARM_POOL,
}

# Inputs left out because they break the exit-code contract at the commit
# the golden outputs come from: they end in a raw traceback, not exit 1/2.
EXCLUDED = {
    ("coeffs", "(" * 400 + "X" + ")" * 400, "--upto", "2"): "RecursionError in the parser",
    ("coeffs", _sum_of_x(1500), "--upto", "2"): "RecursionError in validation and counting",
    ("coeffs", _derive(400, "E"), "--upto", "2"): "RecursionError in validation and counting",
    ("coeffs", "E", "--upto", "-1"): "ValueError from CountSeq",
    ("solve", "--op", "1:0 + X:0", "--max-iter", "-5"): "ValueError from CountSeq",
    ("orbits", "P", "--degree", "-2"): "ValueError from math.factorial",
    ("fixcheck", "--op", "1:1", "--seq", "1,a"): "ValueError from int()",
}


def key(argv):
    """The request's identity in golden.json: its argv as one shell line."""
    return shlex.join(argv)
