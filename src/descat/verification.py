"""Verification of attacked closed loops.

CA-controllability is decided exactly by reachability.  The
estimate-consistent formulation of CA-observability checked here is
decidable on a finite (plant state, set of observer states) arena, but
this check stops at a depth bound, so its positive answer is labelled
``holds-to-depth``.  The large language (the upper bound of everything
the attacked closed loop can generate) is realized as a product
automaton, and its equality with the spec is decided on the fly.  Every
check is one breadth-first search (``automata.breadth_first``) over a
finite arena; the closed-loop arena pairs a plant state with the set of
supervisor-observer states some attacked observation reaches, held as an
int bitmask over observer states numbered on first sight
(:class:`_ObserverStepRelation`).  The supervisor's observer is read as
its int table (:class:`~descat.automata.SubsetTable`), and its controls
by table number, so verify names no observer state: names are built
only where :func:`large_language_automaton` names its states.  The
observability check never builds the spec's CA-observer: it steps it on
demand (:class:`~descat.estimation._ObserverView`), so it builds only
the observer states its search reaches, except that ``depth=None`` walks
every observer state once to count them.  The view reads the observer's
preamble (substitution, erasure, numbering, silent closure) memoised on
the restricted policy, so synthesis on the same spec and policy does
not build it again.  An attack is a policy or an
observation-based strategy, set up on plant and spec by
:func:`~descat.attacks.transition_based_setup`; every entry point
validates the whole attack on the plant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import itemgetter, or_
from typing import Iterable, Mapping

from .attacks import (
    ObservationAttackStrategy,
    SensorAttackPolicy,
    actuator_attack_set,
    ensure_valid_policy,
    transition_based_setup,
)
from .automata import Automaton, Transition, Word, _bits, breadth_first, ensure_deterministic, ensure_plant_and_spec
from .errors import InputError
from .estimation import _ObserverView
from .synthesis import disabled_set, ensure_estimate_based


@dataclass(frozen=True)
class Counterexample:
    """A string, the event extending it, and optional supporting evidence."""

    string: Word
    event: str
    witness: str | None = None

    def as_dict(self) -> dict:
        return {"string": list(self.string), "event": self.event, "witness": self.witness}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: holds, fails, or holds up to an explored depth."""

    status: str
    counterexample: Counterexample | None = None
    depth: int | None = None

    def __post_init__(self):
        if self.status not in ("holds", "fails", "holds-to-depth"):
            raise InputError(f"unknown verdict status {self.status!r}")
        if self.status == "fails" and self.counterexample is None:
            raise InputError("a failing verdict needs a counterexample")
        if self.status == "holds-to-depth" and self.depth is None:
            raise InputError("a depth-bounded verdict needs its depth")

    @property
    def holds(self) -> bool:
        return self.status != "fails"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "depth": self.depth,
            "counterexample": self.counterexample.as_dict() if self.counterexample else None,
        }


def _fails(string: Word, event: str, witness: str, depth: int | None = None) -> Verdict:
    return Verdict("fails", Counterexample(string, event, witness), depth)


def check_ca_controllability(g: Automaton, h: Automaton, actuator_attackable: Iterable[str] | None = None) -> Verdict:
    """Exact check that no uncontrollable-or-attackable event escapes the spec.

    The safety language fails the check iff some reachable spec state has a
    plant transition labeled with an uncontrollable event of the plant's
    alphabet, or an actuator-attackable one (``actuator_attackable``, else
    the alphabet's), whose target is unsafe; the counterexample carries a
    shortest string reaching that state.
    """
    ensure_plant_and_spec(g, h)
    unstoppable = g.alphabet.uncontrollable | actuator_attack_set(g.alphabet, actuator_attackable)
    for q, _, _, string in breadth_first(h.initial, h.outgoing):
        for event, dst in g.outgoing(q):
            if event in unstoppable and dst not in h.states:
                return _fails(string(), event, f"reaches unsafe state {dst!r}")
    return Verdict(status="holds")


def check_ca_observability_bounded(
    g: Automaton, h: Automaton, attack: SensorAttackPolicy | ObservationAttackStrategy, depth: int | None = None
) -> Verdict:
    """Depth-bounded check of estimate-consistent observability.

    For every string of the safety language extended by one event inside
    it (up to ``depth`` events total), some feasible attacked observation
    must have a state estimate from which that event cannot leave the safe
    states.  If every observation's estimate would force the event to be
    disabled, the pair is a counterexample.  The observer states of all
    observations of a string are tracked exactly, so infinite corruption
    languages are handled within the depth.  A positive answer only covers
    the explored depth.  ``depth=None`` explores ``2 * (|X| + |Q|)`` events,
    for the spec's CA-observer states ``X`` and the set-up plant's states ``Q``.

    The spec's CA-observer is stepped on demand, not built: the search
    builds only the observer states it reaches, and ``depth=None`` walks
    every observer state once to count ``X``.  The whole policy is
    validated on the (set-up) plant first, as verification validates it,
    and only then restricted to the spec.
    """
    if depth is not None and depth < 1:
        raise InputError("depth must be at least 1")
    ensure_plant_and_spec(g, h)
    if isinstance(attack, ObservationAttackStrategy):
        g, h, attack = transition_based_setup(g, h, attack)
    ensure_valid_policy(g, attack)
    policy = attack.restricted_to(h)[0]
    view = _ObserverView(h, policy)
    depth = depth if depth is not None else 2 * (view.count() + len(g.states))
    relation = _ObserverStepRelation(h, view, policy)
    # An event is disabled at a node iff every tracked state's estimate disables it (any event, if none is).
    disabled_at = cache(lambda x: disabled_set(view.estimate(x), g, h.states))
    disabled = relation.fold(disabled_at, frozenset.intersection, frozenset(label for _, label, _ in h.transitions))

    def expand(node):
        q, tracked = node
        return [(event, (dst, step[tracked])) for event, dst, step in relation.edges[q]]

    for (_, tracked), level, successors, string in breadth_first((h.initial, relation.initial), expand):
        if level == depth:
            break
        for event, _ in successors:
            if event in disabled[tracked]:
                witness = "every feasible observation yields an estimate that must disable the event"
                return _fails(string(), event, witness, depth)
    return Verdict(status="holds-to-depth", depth=depth)


@dataclass(frozen=True)
class LargeLanguageAutomaton:
    """Automaton generating the upper bound of the attacked closed-loop behavior.

    Its states are the closed-loop arena's nodes: a plant state paired with
    the set of supervisor-observer states reachable under some feasible
    attacked observation of the string so far.  The search holds that set
    as a bitmask; here each node is named ``q|{x,...}`` and ``components``
    maps the name back to ``(q, frozenset of observer-state names)``.
    """

    automaton: Automaton
    components: Mapping[str, tuple[str, frozenset[str]]]

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))


class _Memo(dict):
    """Dict that fills a missing key with ``compute(key)``, so a hit is one subscript."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        self[key] = value = self.compute(key)
        return value


class _ObserverStepRelation:
    """Successor relation of sets of observer states across a plant's transitions.

    The observer is a *source*: anything with an ``initial`` key and an
    ``outgoing(key)`` listing ``(label, key)`` moves.  The supervisor's
    observer table (:class:`~descat.automata.SubsetTable`) is one, keyed by
    table number; the spec's
    :class:`~descat.estimation._ObserverView` is another, keyed by subset
    mask, which builds only the observer states a search reaches.  A set
    of keys is an int mask: keys are numbered on first sight, bit ``i``
    standing for ``keys[i]``, and each key's ``{label: bit}`` row is read
    lazily off the source.  ``edges[q]`` lists the plant's
    ``(event, dst, step)`` triples out of ``q``, where ``step`` maps a mask
    to its successor mask.  Transitions share ``step`` by *kind*: the event
    when unattacked, else the corruption automaton's identity (a policy
    keeps one object per automaton value, see
    :class:`~descat.attacks.SensorAttackPolicy`).  Under an attacked kind an
    observer state steps to everything some corruption word can drive it to
    (product reachability with the corruption automaton, so infinite attack
    languages are exact); under an event, by the event's projection.  A
    mask steps to the OR of its members' steps.  Both steps are memoised,
    per (kind, state) and per (kind, mask).
    """

    def __init__(self, plant: Automaton, source, policy: SensorAttackPolicy):
        self.plant = plant
        self.policy = policy
        self.keys: list = []
        self._index = _Memo(lambda key: self.keys.append(key) or len(self.keys) - 1)
        self._rows = _Memo(lambda i: {label: self._index[x] for label, x in source.outgoing(self.keys[i])})
        self._steps: dict[str | int, _Memo] = {}
        self.edges = _Memo(self._edges)
        self.initial = 1 << self._index[source.initial]

    def members(self, mask: int) -> list:
        """Keys of the observer states in ``mask``."""
        return [self.keys[i] for i in _bits(mask)]

    def fold(self, value, combine, empty) -> _Memo:
        """Memo from a mask to ``combine`` of ``value(key)`` over its members, starting at ``empty``."""
        return _Memo(lambda mask: reduce(combine, map(value, self.members(mask)), empty))

    def _edges(self, q: str) -> list[tuple[str, str, _Memo]]:
        return [(event, dst, self._step((q, event, dst))) for event, dst in self.plant.outgoing(q)]

    def _step(self, tr: Transition) -> _Memo:
        f = self.policy.language_automaton(tr)
        kind = tr[1] if f is None else id(f)
        if kind not in self._steps:
            states = _Memo(partial(self._project, tr[1]) if f is None else partial(self._corrupt, f))
            self._steps[kind] = _Memo(lambda mask: reduce(or_, map(states.__getitem__, _bits(mask)), 0))
        return self._steps[kind]

    def _project(self, event: str, i: int) -> int:
        if event not in self.plant.alphabet.observable:
            return 1 << i
        nxt = self._rows[i].get(event)
        return 0 if nxt is None else 1 << nxt

    def _corrupt(self, f: Automaton, i: int) -> int:
        found = 0
        start = (f.initial, i)
        seen = {start}
        stack = [start]
        while stack:
            fstate, x = stack.pop()
            if fstate in f.marked:
                found |= 1 << x
            row = self._rows[x]
            for label, f2 in f.outgoing(fstate):
                nxt = (f2, row.get(label))
                if nxt[1] is not None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return found


def _closed_loop(g: Automaton, h: Automaton | None, supervisor, attack, actuator_attackable):
    """Set-up plant and spec, step relation, and the events each mask lets fire, of the attacked closed loop.

    The arena's nodes pair a set-up plant state with the mask of
    supervisor-observer states that some feasible attacked observation of
    the string so far reaches.  An event fires iff the plant allows it and
    it is uncontrollable, actuator-attackable, or enabled by the control of
    some tracked state; the mask advances through the step relation.
    """
    ensure_estimate_based(supervisor)
    ensure_deterministic(g)
    g, h, policy = transition_based_setup(g, h, attack)
    relation = _ObserverStepRelation(g, supervisor.observer.table, policy)
    unstoppable = g.alphabet.uncontrollable | actuator_attack_set(g.alphabet, actuator_attackable)
    enabled = relation.fold(supervisor.control_table.__getitem__, frozenset.union, unstoppable)
    return g, h, relation, enabled


def large_language_automaton(
    g: Automaton,
    supervisor,
    attack: SensorAttackPolicy | ObservationAttackStrategy,
    actuator_attackable: Iterable[str] | None = None,
) -> LargeLanguageAutomaton:
    """Product construction generating exactly the attacked closed loop's large language.

    Its states are the nodes of the closed-loop arena (set-up plant state,
    tracked observer states), named ``q|{x,...}``; every node is marked.
    """
    g, _, relation, enabled = _closed_loop(g, None, supervisor, attack, actuator_attackable)
    state_names = supervisor.observer.table.names
    named = lambda tracked: [state_names[x] for x in relation.members(tracked)]

    def expand(node):
        q, tracked = node
        allowed = enabled[tracked]
        return [(event, (dst, step[tracked])) for event, dst, step in relation.edges[q] if event in allowed]

    start = (g.initial, relation.initial)
    names: dict[tuple[str, int], str] = {}
    edges = []
    for node, _, successors, _ in breadth_first(start, expand):
        q, tracked = node
        names[node] = q + "|{" + ",".join(sorted(named(tracked))) + "}"
        edges.extend((node, event, succ) for event, succ in successors)
    automaton = Automaton(
        states=frozenset(names.values()),
        alphabet=g.alphabet,
        transitions=frozenset((names[src], event, names[dst]) for src, event, dst in edges),
        initial=names[start],
        marked=frozenset(names.values()),
    )
    components = {name: (q, frozenset(named(tracked))) for (q, tracked), name in names.items()}
    return LargeLanguageAutomaton(automaton=automaton, components=components)


def verify_large_language_equals(
    g: Automaton,
    h: Automaton,
    supervisor,
    attack: SensorAttackPolicy | ObservationAttackStrategy,
    actuator_attackable: Iterable[str] | None = None,
) -> Verdict:
    """Exact language equality between the attacked closed loop's upper bound and the spec.

    Walks the closed-loop arena and the set-up spec together, on the fly, and
    stops at the first event that only one side allows; that string is a
    shortest distinguishing one.
    """
    g, h, relation, enabled = _closed_loop(g, h, supervisor, attack, actuator_attackable)
    spec = _Memo(lambda r: {event: h.delta(r, event) for event, _ in h.outgoing(r)})

    # A node is (plant state, mask, spec state).  An event only one side
    # allows ends the walk at its source node, so a successor without a
    # spec state is never expanded.
    def expand(node):
        q, tracked, r = node
        allowed, right = enabled[tracked], spec[r]
        return [
            (event, (dst, step[tracked], right.get(event)))
            for event, dst, step in relation.edges[q]
            if event in allowed
        ]

    for (_, _, r), _, successors, string in breadth_first((g.initial, relation.initial, h.initial), expand):
        only = spec[r].keys() ^ set(map(itemgetter(0), successors))
        if only:
            event = min(only)
            side = (
                "in the specification but not generated by the closed loop"
                if event in spec[r]
                else "generated by the closed loop but outside the specification"
            )
            return _fails(string(), event, side)
    return Verdict(status="holds")
