"""Per-layer spans recorded from outside the program.

``install`` replaces each traced public function of ``espece`` with a
wrapper that records a span: its call count and its self time, which is
the span's duration minus the time covered by traced spans it called.
The wrapper is put in every ``espece`` module namespace that binds the
function, so ``from .species import cardinality`` callers are seen too.
Calls made through references kept elsewhere (a dict, a closure made
before ``install``) are not seen.

Nothing in the program changes: with no ``install`` no wrapper exists.
A function that a later version of the program no longer has is
reported as absent, with zero calls.
"""

import importlib
import sys
import time

# module -> public functions traced as spans
TRACED = {
    "cli": ("main", "parse_expr", "parse_operator"),
    "species": ("validate", "cardinality", "enumerate_degree", "structures_on", "act_structure"),
    "counting": ("count_seq", "egf"),
    "groups": (
        "orbits",
        "stabilizer",
        "fixed_points",
        "count_equivariant_maps",
        "actions_isomorphic",
        "subgroups_conjugate",
        "all_permutations",
    ),
    "transforms": (
        "iso_check",
        "count_nat",
        "enumerate_nat",
        "canonical_iso_suite",
        "check_naturality",
        "check_monoid",
        "tensor_partial_algebras",
    ),
    "automata": ("terminal_counts", "hom_day_counts"),
    "diffeq": ("adamek_chain", "apply_operator", "fixpoint_check"),
}

SPANS = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)
PERMS = "groups.all_permutations.perms"
# Counted, not timed: a span here would move the memo-lookup time out of
# its callers (orbits, stabilizer) and double the cost of each lookup.
ACT = "groups.FiniteAction.act.calls"


class Tracer:
    """Span totals of one process: calls and self time per function."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = {PERMS: 0, ACT: 0}
        self._open = []  # per open span: time covered by its child spans

    def span(self, name, fn, count_result=False):
        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
            if count_result and hasattr(result, "__len__"):
                self.counts[PERMS] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def snapshot(self):
        return {"calls": self.calls, "self_s": self.self_s, "counts": self.counts}

    def merge(self, snap):
        for name, value in snap["calls"].items():
            self.calls[name] += value
        for name, value in snap["self_s"].items():
            self.self_s[name] += value
        for name, value in snap["counts"].items():
            self.counts[name] += value


def _rebind(orig, replacement):
    """Point every espece module attribute bound to orig at replacement."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "espece" or modname.startswith("espece.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap every traced function; return the names the program lacks."""
    absent = []
    for module_name, names in TRACED.items():
        try:
            module = importlib.import_module(f"espece.{module_name}")
        except ModuleNotFoundError:
            module = None
        for name in names:
            full = f"{module_name}.{name}"
            orig = getattr(module, name, None)
            if not callable(orig):
                absent.append(full)
                continue
            wrapper = tracer.span(full, orig, count_result=(full == "groups.all_permutations"))
            _rebind(orig, wrapper)
    groups = sys.modules.get("espece.groups")
    action_class = getattr(groups, "FiniteAction", None)
    act = vars(action_class).get("act") if action_class is not None else None
    if callable(act):
        action_class.act = tracer.counter(ACT, act)
    else:
        absent.append("groups.FiniteAction.act")
    return absent
