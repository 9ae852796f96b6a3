"""Records and interned nodes: construction, repr, equality, hashing,
immutability, and the modules a fresh ``import espece.cli`` loads.
(Copies and pickles of nodes: ``test_species.test_nodes_are_interned``.)"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from espece import species as S
from espece.automata import (
    AdjLDyn,
    DeriveDyn,
    DeriveLDyn,
    MachineReport,
    MealyAutomaton,
    MooreAutomaton,
    PointingDyn,
    TensorBy,
)
from espece.cli import _Token
from espece.counting import ConvergenceReport, CountSeq, EgfSeq
from espece.diffeq import ChainReport, DiffOperator
from espece.errors import Diagnostic
from espece.groups import Orbit, Permutation
from espece.transforms import (
    IsoResult,
    MonoidReport,
    NatTrans,
    PartialAlgebra,
    SuiteEntry,
    SuiteReport,
)

SRC = Path(__file__).resolve().parents[1] / "src"
X, E = S.X(), S.Exp()

NODE_REPRS = [
    (S.Zero(), "Zero()"),
    (S.One(), "One()"),
    (X, "X()"),
    (S.Representable(3), "Representable(k=3)"),
    (E, "Exp()"),
    (S.ExpPlus(), "ExpPlus()"),
    (S.Lin(), "Lin()"),
    (S.LinPlus(), "LinPlus()"),
    (S.Cyc(), "Cyc()"),
    (S.Perm(), "Perm()"),
    (S.Subsets(), "Subsets()"),
    (S.Sum(E, X), "Sum(f=Exp(), g=X())"),
    (S.Hadamard(E, X), "Hadamard(f=Exp(), g=X())"),
    (S.Cauchy(E, X), "Cauchy(f=Exp(), g=X())"),
    (S.Substitute(E, X), "Substitute(f=Exp(), g=X())"),
    (S.Derive(E), "Derive(f=Exp())"),
    (S.Pointing(E), "Pointing(f=Exp())"),
    (S.AdjL(E), "AdjL(f=Exp())"),
    (S.AdjR(E), "AdjR(f=Exp())"),
    (S.DeriveL(E), "DeriveL(f=Exp())"),
    (S.TruncLeft(E, 2), "TruncLeft(f=Exp(), cutoff=2)"),
    (S.TruncRight(X, 0), "TruncRight(f=X(), cutoff=0)"),
]

COUNTS = CountSeq((1, 2, 3))
CONV = ConvergenceReport((0, 1, None), False, None, 2)
OP = DiffOperator(((X, 1),), E)
NAT = NatTrans(X, X, 1, ((), (0,)))
NAT_TEXT = "NatTrans(source=X(), target=X(), horizon=1, components=((), (0,)))"

RECORD_REPRS = [
    (TensorBy(X), "TensorBy(a=X())"),
    (DeriveDyn(), "DeriveDyn()"),
    (AdjLDyn(), "AdjLDyn()"),
    (PointingDyn(), "PointingDyn()"),
    (DeriveLDyn(), "DeriveLDyn()"),
    (
        MealyAutomaton(DeriveDyn(), X, E, NAT, NAT, 2),
        "MealyAutomaton(dynamics=DeriveDyn(), state=X(), output=Exp(), "
        f"d={NAT_TEXT}, s={NAT_TEXT}, horizon=2)",
    ),
    (
        MooreAutomaton(TensorBy(X), X, E, NAT, NAT, 3),
        "MooreAutomaton(dynamics=TensorBy(a=X()), state=X(), output=Exp(), "
        f"d={NAT_TEXT}, s={NAT_TEXT}, horizon=3)",
    ),
    (MachineReport(False, ("bad",)), "MachineReport(ok=False, problems=('bad',))"),
    (_Token("atom", "X", 3), "_Token(kind='atom', text='X', offset=3)"),
    (COUNTS, "CountSeq(coeffs=(1, 2, 3))"),
    (
        EgfSeq((Fraction(1), Fraction(1, 2))),
        "EgfSeq(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        CONV,
        "ConvergenceReport(stable_from=(0, 1, None), converged=False, limit=None, witness=2)",
    ),
    (OP, "DiffOperator(terms=((X(), 1),), constant=Exp())"),
    (DiffOperator(((X, 0),)), "DiffOperator(terms=((X(), 0),), constant=None)"),
    (
        ChainReport(OP, 2, (COUNTS,), CONV, None),
        "ChainReport(operator=DiffOperator(terms=((X(), 1),), constant=Exp()), horizon=2, "
        "iterates=(CountSeq(coeffs=(1, 2, 3)),), convergence=ConvergenceReport("
        "stable_from=(0, 1, None), converged=False, limit=None, witness=2), "
        "fixpoint_contact=None)",
    ),
    (
        Diagnostic("NegativeDegree", "root", "Y(-1)"),
        "Diagnostic(code='NegativeDegree', where='root', message='Y(-1)')",
    ),
    (Permutation((2, 1, 3)), "Permutation(images=(2, 1, 3))"),
    (
        Orbit(("rep", (1,)), (("rep", (1,)),)),
        "Orbit(representative=('rep', (1,)), points=(('rep', (1,)),))",
    ),
    (NAT, NAT_TEXT),
    (IsoResult(True), "IsoResult(isomorphic=True, witness_degree=None, detail=())"),
    (
        IsoResult(False, 2, ("a",)),
        "IsoResult(isomorphic=False, witness_degree=2, detail=('a',))",
    ),
    (
        SuiteEntry("unit", "X", 3, True),
        "SuiteEntry(name='unit', args='X', horizon=3, passed=True, witness_degree=None, detail=())",
    ),
    (
        SuiteReport((SuiteEntry("unit", "X", 3, False, 1, ("x",)),)),
        "SuiteReport(entries=(SuiteEntry(name='unit', args='X', horizon=3, passed=False, "
        "witness_degree=1, detail=('x',)),))",
    ),
    (MonoidReport(True, ()), "MonoidReport(ok=True, failures=())"),
    (PartialAlgebra(X, NAT), f"PartialAlgebra(carrier=X(), xi={NAT_TEXT})"),
]


@pytest.mark.parametrize("obj, text", NODE_REPRS + RECORD_REPRS)
def test_repr_is_name_and_fields(obj, text):
    assert repr(obj) == text


def test_intern_hit_returns_the_live_node():
    e = S.Sum(E, X)
    assert S.Sum(S.Exp(), S.X()) is e
    assert S.Sum(f=E, g=X) is e
    assert S.Sum(E, g=X) is e
    assert S.TruncLeft(cutoff=2, f=E) is S.TruncLeft(E, 2)
    assert S.Representable(k=2) is S.Representable(2)
    assert e.children == (E, X)
    assert S.TruncLeft(E, 2).children == (E,)
    assert X.children == ()


def test_node_arguments_are_checked():
    with pytest.raises(TypeError, match="missing argument 'g'"):
        S.Sum(E)
    with pytest.raises(TypeError, match="takes 0 arguments"):
        S.X(1)
    with pytest.raises(TypeError, match="unexpected argument 'h'"):
        S.Sum(E, X, h=X)


@pytest.mark.parametrize(
    "obj",
    [S.Sum(E, X), X, COUNTS, Permutation((1,)), OP, IsoResult(True), DeriveDyn(), NAT],
    ids=lambda obj: type(obj).__name__,
)
def test_assignment_raises(obj):
    name = obj._fields[0] if obj._fields else "anything"
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(obj, name)


def test_equality_is_class_and_fields():
    assert CountSeq((1,)) != EgfSeq((Fraction(1),))
    assert CountSeq((1, 2)) == CountSeq((1, 2))
    assert CountSeq((1, 2)) != CountSeq((1, 3))
    assert DeriveDyn() == DeriveDyn() and DeriveDyn() != AdjLDyn()
    assert IsoResult(True) == IsoResult(True, None, ())
    # nodes compare by identity, which interning makes structural
    assert S.Sum(E, X) == S.Sum(E, X) and S.Sum(E, X) != S.Sum(X, E)


def test_equal_records_hash_equal():
    pairs = [
        (CountSeq((1, 2)), CountSeq((1, 2))),
        (Permutation((2, 1)), Permutation((2, 1))),
        (DiffOperator(((X, 1),)), DiffOperator(((X, 1),), None)),
        (TensorBy(E), TensorBy(E)),
        (SuiteEntry("a", "b", 1, True), SuiteEntry("a", "b", 1, True, None, ())),
        (Diagnostic("c", "w", "m"), Diagnostic(code="c", where="w", message="m")),
        (NAT, NatTrans(X, X, 1, ((), (0,)))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    # a record hashes as the tuple of its fields
    assert hash(Permutation((2, 1))) == hash(((2, 1),))
    assert hash(Diagnostic("c", "w", "m")) == hash(("c", "w", "m"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CountSeq(()), "a counting sequence needs at least the degree-0 entry"),
        (lambda: CountSeq((1, -1)), "counts must be nonnegative integers: (1, -1)"),
        (lambda: CountSeq((1, 0.5)), "counts must be nonnegative integers: (1, 0.5)"),
        (lambda: EgfSeq(()), "an EGF sequence needs at least the degree-0 entry"),
        (lambda: Permutation((1, 1)), "not a bijection of 1..2: (1, 1)"),
        (lambda: Permutation((0, 1)), "not a bijection of 1..2: (0, 1)"),
        (lambda: DiffOperator(()), "an operator needs at least one term or a constant"),
        (lambda: DiffOperator(((X, -1),)), "derivative orders must be nonnegative"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site: pytest itself has loaded both here
    program = (
        "import sys; sys.path.insert(0, sys.argv[1]); import espece.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", program, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
