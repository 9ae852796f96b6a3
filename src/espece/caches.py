"""The one owner of the engine's memo tables.

Every table that outlives a call is registered here: the counting,
Cauchy layout, enumeration, compile, action and validation tables of
``species``, the S_n tables of ``groups``, and one table per remembered query (``memo``).
Modules keep aliases bound to the same dict and set objects, so a lookup
costs what a module global's does.

``clear`` empties every table.  ``report`` gives each table's entries and
stored slots, the total length of the sequences and arrays it stores, so a
degree-8 compile weighs its arrays, not one entry.  A table's slot rule is
given once, to ``register``; a writer hands ``add`` what it stored, and
``add`` counts it by that rule into ``held``, the report's total (a
writer of many values in one pass gives ``grow`` their slots), so the
cap costs one comparison: ``check_cap`` empties every table when ``held``
passes ``CAP``.  It acts only when no remembered query is computing
(``cli.main`` calls it on entry, ``memo`` before an outermost query
computes, and so do the ``species`` entries a library caller may use
alone: ``cardinality``, ``counts_upto``, ``enumerate_degree``,
``structures_on`` and ``generator_arrays``), since ``species._counts``
reads its children's entries off the table while it works.
"""

from __future__ import annotations

from functools import wraps
from operator import itemgetter

from .records import Record, by_fields

# Stored slots past which every table is emptied; one warm benchmark
# session stays under a tenth of it.
CAP = 1_000_000

_TABLES: dict = {}  # name -> (table, the slots of one value)
_RULES: dict = {}  # id(table) -> the slots of one value
held = 0  # stored slots of all tables, counted by ``add``
_answers: dict = {}  # id -> every answer a ``memo`` table holds, counted there once
_computing = 0  # remembered queries now computing
_KEYWORDS = object()  # parts a call's positional arguments from its keywords
_SCALARS = frozenset((int, bool, type(None)))  # not opened: a sequence of them is its length


def nested(value) -> int:
    """Slots of a sequence of sequences."""
    return sum(map(len, value))


def _one(value) -> int:
    return 1


def register(name: str, table, slots=_one):
    """Own ``table`` (a dict, or a set of keys) under ``name``; returns it.
    A value, or a set's key, stores ``slots(value)`` slots."""
    _TABLES[name] = (table, slots)
    _RULES[id(table)] = slots
    return table


def measure(table, value) -> int:
    """The slots of ``value`` by ``table``'s rule."""
    return _RULES[id(table)](value)


def add(table, value, before: int = 0) -> None:
    """Count ``value``, just stored in ``table``, into ``held``.  A writer
    that extends a stored value in place passes the extension, or the
    whole value and ``before``, what ``measure`` gave before it grew."""
    global held
    held += _RULES[id(table)](value) - before


def grow(slots: int) -> None:
    """Count ``slots`` stored slots, already measured by their table's
    rule, into ``held``: a writer that stores many values in one pass
    counts them once, not one ``add`` each."""
    global held
    held += slots


def clear() -> None:
    """Empty every registered table."""
    global held
    for table, _ in _TABLES.values():
        table.clear()
    _answers.clear()
    held = 0


def report() -> dict:
    """name -> (entries, stored slots), measured on every registered table."""
    return {
        name: (len(table), sum(map(slots, table.values() if isinstance(table, dict) else table)))
        for name, (table, slots) in _TABLES.items()
    }


def check_cap() -> None:
    """Empty every table if they hold more than ``CAP`` slots, unless a
    remembered query is computing."""
    if held > CAP and not _computing:
        clear()


def _slots(value) -> int:
    """Stored slots of a remembered call: the length of each distinct
    tuple, list and string in it, reached through them and through
    records compared by value.  An interned expression node, compared by
    identity, is owned by the node table and is not opened, and neither
    is another remembered answer, counted in its own table."""
    out, seen, stack = 0, set(), [value]
    while stack:
        v = stack.pop()
        if id(v) in seen or id(v) in _answers:
            continue
        seen.add(id(v))
        if isinstance(v, (tuple, list)):
            out += len(v)
            if not set(map(type, v)) <= _SCALARS:
                stack += v
        elif isinstance(v, str):
            out += len(v)
        elif isinstance(v, Record) and by_fields(type(v)):
            stack += v._values(v)
    return out


def memo(fn):
    """``fn`` remembered by its arguments, in a table of its own.

    A call with an unhashable argument is computed and not remembered,
    and so is a call that raises: the next one computes and raises
    afresh.  Only an outermost call checks the cap, before it computes.
    """
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
    table = register(name, {}, itemgetter(1))  # key -> (answer, its slots)

    @wraps(fn)
    def remembered(*args, **kwargs):
        global _computing
        key = (*args, _KEYWORDS, *kwargs.items()) if kwargs else args
        try:
            hit = table.get(key)
        except TypeError:  # an unhashable argument
            hit = key = None
        if hit is not None:
            return hit[0]
        check_cap()
        _computing += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            _computing -= 1
        if key is not None:
            table[key] = entry = (result, 1 + _slots((key, result)))
            add(table, entry)
            _answers[id(result)] = result
        return result

    return remembered

