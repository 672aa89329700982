"""Abstract syntax of QuickLTL formulae (paper, Figure 4).

A formula is built from:

* atomic propositions (arbitrary predicates over an opaque *state*),
* the boolean connectives ``top``, ``bottom``, ``not``, ``and``, ``or``,
* three "next" operators:

  - ``NextReq``    (required next): demands that the checker produce a
    next state,
  - ``NextWeak``   (weak next): defaults to *presumptively true* when the
    trace ends,
  - ``NextStrong`` (strong next): defaults to *presumptively false* when
    the trace ends,

* the subscripted temporal operators ``Always(n, .)``, ``Eventually(n, .)``,
  ``Until(n, ., .)`` and ``Release(n, ., .)``, whose numeric annotation is
  the minimum number of states the checker must examine before a
  presumptive answer is allowed (Figure 5).

Temporal operator bodies may also be :class:`Defer` nodes, whose
``build`` produces a formula once a concrete state is available.  This is
how the Specstrom evaluator stages temporal operators (paper, Section
3.1): the quoted body expression is re-evaluated at every state the
operator unrolls over, over the values its free names had where it was
quoted, which freezes any eagerly-bound values.  Those quotes are values,
so a body re-quoted over the same values is the node already built, and
deferred subterms share like every other subterm.

Hash-consing
------------

Nodes are *interned*: constructing a formula that is structurally equal
to one already alive returns the existing object, so structural equality
coincides with pointer identity for everything built through the public
constructors.  That identity is what makes the progression engine's
memo caches (:mod:`repro.quickltl.progression`) O(1) per node: per-state
unroll/simplify/step results are keyed by node, every node carries its
structural hash precomputed, and residual subterms that did not change
between states are literally the same object -- ``observe()`` allocates
nothing for the unchanged bulk of an ``always``/``until`` residual.

The intern table holds *weak* references, so formulas die normally; it
is a plain per-process table -- ``fork`` gives every worker its own
copy-on-write instance (``__eq__`` keeps a structural fallback so
uninterned or unpickled duplicates stay sound).  :func:`intern_stats`
exposes the per-process hit/miss counters; each worker runs one test
at a time, so an :func:`intern_delta` around a test counts that test's
constructions, which the pool metrics report as the intern-table hit
rate.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Tuple

__all__ = [
    "Formula",
    "Top",
    "Bottom",
    "TOP",
    "BOTTOM",
    "Atom",
    "Not",
    "And",
    "Or",
    "NextReq",
    "NextWeak",
    "NextStrong",
    "Always",
    "Eventually",
    "Until",
    "Release",
    "Defer",
    "atom",
    "implies",
    "iff",
    "conj",
    "disj",
    "children",
    "intern_stats",
    "intern_table_size",
    "intern_delta",
    "InternDelta",
    "DEFAULT_SUBSCRIPT",
]

#: Default subscript applied by front ends when the user writes a temporal
#: operator without an annotation.  The paper reports 100 as Quickstrom's
#: default (Section 4.3).
DEFAULT_SUBSCRIPT = 100

#: The hash-cons table: structural key -> live node.  Values are weak so
#: the table never keeps formulas alive; keys hold the children strongly,
#: which is fine because a parent's entry lives exactly as long as the
#: parent itself.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: ``[hits, misses]`` of the intern table, per process.
_STATS = [0, 0]


def intern_stats() -> Tuple[int, int]:
    """``(hits, misses)`` of the intern table since process start.

    A *hit* is a construction that returned an already-live node; a
    *miss* allocated a new one.
    """
    return _STATS[0], _STATS[1]


def intern_table_size() -> int:
    """Number of live interned nodes (weak table, so this tracks GC)."""
    return len(_INTERN)


class InternDelta:
    """Hit/miss counter deltas over a region (see :func:`intern_delta`).

    While the region is open, :attr:`hits`/:attr:`misses` are *live*
    deltas against the snapshot taken on entry; after ``__exit__`` they
    freeze at the region's totals.  Re-entering re-snapshots, so one
    instance can measure several regions in sequence.
    """

    __slots__ = ("_hits0", "_misses0", "_frozen")

    def __init__(self) -> None:
        self._hits0, self._misses0 = _STATS
        self._frozen: Optional[Tuple[int, int]] = None

    def __enter__(self) -> "InternDelta":
        self._hits0, self._misses0 = _STATS
        self._frozen = None
        return self

    def __exit__(self, *_exc) -> None:
        self._frozen = (_STATS[0] - self._hits0, _STATS[1] - self._misses0)

    @property
    def hits(self) -> int:
        if self._frozen is not None:
            return self._frozen[0]
        return _STATS[0] - self._hits0

    @property
    def misses(self) -> int:
        if self._frozen is not None:
            return self._frozen[1]
        return _STATS[1] - self._misses0

    @property
    def constructions(self) -> int:
        """Total node constructions in the region (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of constructions served by the table (0.0 if none)."""
        constructions = self.constructions
        return self.hits / constructions if constructions else 0.0

    def as_tuple(self) -> Tuple[int, int]:
        return self.hits, self.misses


def intern_delta() -> InternDelta:
    """Snapshot the intern counters over a ``with`` region::

        with intern_delta() as delta:
            ...build formulas...
        print(delta.hits, delta.misses, delta.hit_ratio)

    It counts the whole process, like :func:`intern_stats`: the checker
    runner wraps each test and each replay in one.  The monitor's
    progressor reads :func:`intern_stats` around each progression step
    instead, so monitors sharing a process count only their own work.
    """
    return InternDelta()


class _InternedMeta(type):
    """Metaclass routing construction through the hash-cons table.

    ``Cls(*args)`` first normalises keyword arguments against the class'
    ``_fields``, then looks the structural key up; only a miss actually
    allocates (and runs ``__init__``, so validation still fires before a
    node can be interned).  Arguments that cannot be normalised or
    hashed (exotic subclasses, unhashable predicates) fall back to plain
    uninterned construction -- interning is an optimisation, never a
    requirement, because ``Formula.__eq__`` keeps its structural
    fallback.
    """

    def __call__(cls, *args, **kwargs):
        if kwargs:
            fields = cls._fields
            merged = list(args)
            for name in fields[len(args):]:
                if name in kwargs:
                    merged.append(kwargs.pop(name))
                elif name in cls._defaults:
                    merged.append(cls._defaults[name])
                else:
                    return _uninterned(cls, tuple(merged), kwargs)
            if kwargs:  # unknown keyword (custom subclass): stay out of the way
                return _uninterned(cls, tuple(merged), kwargs)
            args = tuple(merged)
        elif len(args) < len(cls._fields):
            defaults = cls._defaults
            names = cls._fields[len(args):]
            if not all(name in defaults for name in names):
                # Let __init__ raise the natural TypeError.
                return _uninterned(cls, args, {})
            args = args + tuple(defaults[name] for name in names)
        key = (cls,) + args
        try:
            node = _INTERN.get(key)
        except TypeError:  # unhashable field value
            return _uninterned(cls, args, {})
        if node is not None:
            _STATS[0] += 1
            return node
        _STATS[1] += 1
        node = type.__call__(cls, *args)
        object.__setattr__(node, "_hash", hash(key))
        _INTERN[key] = node
        return node


def _uninterned(cls, args, kwargs):
    """Plain construction for arguments the intern table cannot key."""
    node = type.__call__(cls, *args, **kwargs)
    try:
        object.__setattr__(node, "_hash", hash((cls,) + tuple(args)))
    except TypeError:
        object.__setattr__(node, "_hash", None)
    return node


class Formula(metaclass=_InternedMeta):
    """Base class for all QuickLTL formula nodes.

    Nodes are immutable, structurally comparable and hash-consed (see
    the module docs): ``a == b`` implies ``a is b`` for interned nodes,
    and every node carries its structural hash precomputed, so hashing
    and equality are O(1) however deep the formula.  Operators are
    overloaded for convenience: ``&``, ``|`` and ``~`` build conjunction,
    disjunction and negation; ``>>`` builds implication.
    """

    __slots__ = ("_hash", "__weakref__")
    #: Field names, in constructor order; subclasses override.
    _fields: Tuple[str, ...] = ()
    #: Default values for trailing optional fields.
    _defaults: dict = {}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable (hash-consed); "
            "build a new formula instead"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            raise TypeError(
                f"unhashable {type(self).__name__} (an unhashable field)"
            )
        return value

    def __reduce__(self):
        # Pickles (and deepcopies) rebuild through the constructor, so
        # restored nodes re-intern in the receiving process.
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__name__}({parts})"

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return implies(self, other)

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


def children(formula: Formula) -> Tuple[Formula, ...]:
    """The immediate subformulae of a node (leaves return ``()``)."""
    return tuple(
        value
        for name in formula._fields
        for value in (getattr(formula, name),)
        if isinstance(value, Formula)
    )


class Top(Formula):
    """The constant true."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def __repr__(self) -> str:
        return "TOP"


class Bottom(Formula):
    """The constant false."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def __repr__(self) -> str:
        return "BOTTOM"


TOP = Top()
BOTTOM = Bottom()


class Atom(Formula):
    """An atomic proposition: a named predicate over states.

    Two atoms are equal when they share both name and predicate object;
    front ends that generate many atoms from one source expression should
    therefore reuse predicate closures where sharing is intended.
    """

    __slots__ = ("name", "predicate")
    _fields = ("name", "predicate")

    def __init__(self, name: str, predicate: Callable[[object], bool]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "predicate", predicate)

    def evaluate(self, state: object) -> bool:
        """Evaluate the predicate, coercing the result to ``bool``."""
        return bool(self.predicate(state))

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


class Not(Formula):
    """Logical negation."""

    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", operand)


class _Binary(Formula):
    """Shared shape of the binary connectives."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    """Binary conjunction."""

    __slots__ = ()


class Or(_Binary):
    """Binary disjunction."""

    __slots__ = ()


class NextReq(Formula):
    """Required next: the checker must produce a next state."""

    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", operand)


class NextWeak(Formula):
    """Weak next: presumptively true if the trace ends here."""

    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", operand)


class NextStrong(Formula):
    """Strong next: presumptively false if the trace ends here."""

    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", operand)


class _Subscripted(Formula):
    """Shared shape (and validation) of the unary temporal operators."""

    __slots__ = ("n", "body")
    _fields = ("n", "body")

    def __init__(self, n: int, body: Formula) -> None:
        if n < 0:
            raise ValueError(f"subscript must be non-negative, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "body", body)


class Always(_Subscripted):
    """``always{n} phi`` -- henceforth, with minimum-trace annotation."""

    __slots__ = ()


class Eventually(_Subscripted):
    """``eventually{n} phi`` -- with minimum-trace annotation."""

    __slots__ = ()


class _SubscriptedBinary(Formula):
    """Shared shape (and validation) of the binary temporal operators."""

    __slots__ = ("n", "left", "right")
    _fields = ("n", "left", "right")

    def __init__(self, n: int, left: Formula, right: Formula) -> None:
        if n < 0:
            raise ValueError(f"subscript must be non-negative, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Until(_SubscriptedBinary):
    """``phi until{n} psi``."""

    __slots__ = ()


class Release(_SubscriptedBinary):
    """``phi release{n} psi``."""

    __slots__ = ()


class Defer(Formula):
    """A formula computed from the state at unroll time.

    ``build`` receives the current state and must return a
    :class:`Formula`.  Defers intern on ``(name, build)`` like every
    other node, so sharing is exactly as good as ``build``'s equality:
    the Specstrom evaluator's builds are
    :class:`~repro.specstrom.eval.Quote` values, equal whenever they
    quote the same body over the same captured values, while a
    hand-built closure equals only itself.

    :meth:`selector_footprint` reports the queries a forced body may
    read, for builds that can tell (a ``footprint()`` method, as quotes
    have); hand-built defers report ``None`` ("unknown"), and
    :func:`repro.specstrom.analysis.live_queries` then stays
    conservative.
    """

    __slots__ = ("name", "build")
    _fields = ("name", "build")

    def __init__(self, name: str, build: Callable[[object], Formula]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "build", build)

    def force(self, state: object) -> Formula:
        built = self.build(state)
        if not isinstance(built, Formula):
            raise TypeError(
                f"deferred formula {self.name!r} produced {type(built).__name__},"
                " expected a Formula"
            )
        return built

    def selector_footprint(self) -> Optional[frozenset]:
        """The queries this deferred body may read when forced, or
        ``None`` when unknown (the build has no ``footprint()``, or the
        analysis failed)."""
        footprint = getattr(self.build, "footprint", None)
        if footprint is None:
            return None
        try:
            return footprint()
        except Exception:  # noqa: BLE001 - analysis must never break checking
            return None

    def __repr__(self) -> str:
        return f"Defer({self.name!r})"


def atom(name: str, predicate: Callable[[object], bool] | None = None) -> Atom:
    """Build an atom; without a predicate, states are treated as mappings
    and the atom reads the truthiness of ``state[name]`` (absent keys are
    false).  This is the convenient form for tests and examples.
    """
    if predicate is None:
        def predicate(state, _key=name):
            if isinstance(state, dict):
                return bool(state.get(_key, False))
            return bool(getattr(state, _key))

    return Atom(name, predicate)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Material implication, desugared to ``!a || b``."""
    return Or(Not(antecedent), consequent)


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, desugared to ``(a -> b) && (b -> a)``."""
    return And(implies(a, b), implies(b, a))


def conj(*formulas: Formula) -> Formula:
    """Right-nested conjunction of any number of formulas (empty = top)."""
    return _fold(And, TOP, formulas)


def disj(*formulas: Formula) -> Formula:
    """Right-nested disjunction of any number of formulas (empty = bottom)."""
    return _fold(Or, BOTTOM, formulas)


def _fold(
    connective: Callable[[Formula, Formula], Formula],
    unit: Formula,
    formulas: Tuple[Formula, ...],
) -> Formula:
    if not formulas:
        return unit
    result = formulas[-1]
    for f in reversed(formulas[:-1]):
        result = connective(f, result)
    return result
