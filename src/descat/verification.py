"""Verification of attacked closed loops.

CA-controllability is decided exactly by reachability.  The
estimate-consistent formulation of CA-observability checked here is
decided exactly on a finite (plant state, set of observer states) arena:
the search saturates by itself, and only a caller's explicit depth bound
cuts it, labelling its positive answer ``holds-to-depth``.  The large
language (the upper bound of everything the attacked closed loop can
generate) is realized as a product automaton, and its equality with the
spec is decided on the fly.

Each check is one breadth-first search over a finite arena.  The
observability check's arena and the closed loop's pair a plant state
with the set of observer states some attacked observation reaches, held
as an int mask whose bit ``i`` is the observer's own state number ``i``
(:class:`_ObserverStepRelation`), whose moves, plant's and spec's, are
listed once per set-up (plant, policy) into a table on the policy: verify
reads what the check listed, as repeat calls do.  The controllability and
observability checks run on ``automata.breadth_first``.  Verify and
:func:`large_language_automaton` walk the closed loop's arena in one
private loop (:func:`_walk`) that tests each node before it steps its
moves and rebuilds a string only for the node it stops at.  Verify's
node carries no spec state: the spec is a sub-automaton of the
deterministic plant, so its state is the node's plant state, and the
spec's moves are checked against the plant's only at the states the
walk visits.

The supervisor's observer is read as its int table
(:class:`~descat.automata.SubsetTable`), and its controls by table
number, so verify names no observer state: names are built only where
:func:`large_language_automaton` names its states.  Verify walks the
table's quotient by control and row (:func:`_quotient`), built when the
walk first steps; the large-language product keeps the table.  The
observability check steps the spec's CA-observer, the one memoised on
the restricted policy (:func:`~descat.estimation._observer_walk`), whose
rows are built in table order on first read: a check builds only a
breadth-first prefix, which synthesis on the same spec and policy
completes.  The numbering is fixed across calls, so the check keeps its
step memos and disabled sets beside the set-up too, and a repeat check
steps nothing again.  An attack is a policy or an
observation-based strategy, set up on plant and spec by
:func:`~descat.attacks.transition_based_setup`; every entry point
validates the whole attack on the plant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count
from operator import itemgetter, methodcaller
from typing import Iterable, Mapping

from .attacks import (
    ObservationAttackStrategy,
    SensorAttackPolicy,
    actuator_attack_set,
    transition_based_setup,
)
from .automata import Automaton, Word, _bits, _string_to, breadth_first, ensure_deterministic, ensure_plant_and_spec
from .errors import InputError
from .estimation import _observer_walk
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
    """Check of estimate-consistent observability, exact unless cut at ``depth``.

    For every string of the safety language extended by one event inside
    it, some feasible attacked observation must have a state estimate from
    which that event cannot leave the safe states.  If every observation's
    estimate would force the event to be disabled, the pair is a
    counterexample, with a shortest string.  The observer states of all
    observations of a string are tracked exactly, so infinite corruption
    languages are handled exactly.  The search runs over the finite arena
    of (plant state, set of observer states) and keeps a visited set, so
    with ``depth=None`` it saturates and answers ``holds`` or ``fails``.
    An explicit ``depth`` explores strings of at most ``depth`` events and
    labels a positive answer ``holds-to-depth``, even when the arena runs
    out first; its verdicts carry the depth.

    The spec's CA-observer is the one synthesis reads, stepped on demand:
    the search builds its rows in table order up to the last one it
    reads, a breadth-first prefix.  The whole attack is set up and
    validated on the plant first, as verification does, and only then
    restricted to the spec.  The spec's moves go into the set-up's move
    table on the attack, which verify reads, and the per-kind step memos
    and disabled sets are kept on the set-up policy per (plant, spec):
    one thread per attack.
    """
    if depth is not None and depth < 1:
        raise InputError("depth must be at least 1")
    ensure_plant_and_spec(g, h)
    g, h, policy = transition_based_setup(g, h, attack)
    walk = _observer_walk(h, policy.restricted_to(h)[0])
    memo, key = policy._memo, ("check", g, h)
    if key not in memo:  # the walk's numbers are fixed, so its step memos and disabled sets are kept
        # An event is disabled at a node iff every tracked state's estimate disables it (any event, if none is).
        disabled_at = cache(lambda i: disabled_set(walk.estimate(i), g, h.states))
        everything = frozenset(label for _, label, _ in h.transitions)
        memo[key] = [], cache(lambda mask: everything.intersection(*map(disabled_at, _bits(mask))))
    memos, disabled = memo[key]
    relation = _ObserverStepRelation(g, walk, policy, h, memos)  # the spec's moves, from the plant's table
    spec_edges, spec_moves, step = relation.spec_edges, relation.spec_moves, relation.step

    def expand(node):
        q, tracked = node
        moves = (spec_edges.get(q) or spec_moves(q))[0]
        return [(event, (dst, memos[k].get(tracked) or step(k, tracked))) for event, dst, k in moves]

    for (_, tracked), level, successors, string in breadth_first((h.initial, 1), expand):
        if level == depth:
            break
        for event, _ in successors:
            if event in disabled(tracked):
                witness = "every feasible observation yields an estimate that must disable the event"
                return _fails(string(), event, witness, depth)
    return Verdict(status="holds" if depth is None else "holds-to-depth", depth=depth)


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


class _ObserverStepRelation:
    """Successor relation of sets of observer states across a plant's transitions.

    The observer is given by its move rows: ``rows[i]`` is observer state
    ``i``'s ``{label: j}`` row, and state 0 is the initial one.  The
    supervisor's observer table (:class:`~descat.automata.SubsetTable`)
    has every row, as do its classes (:func:`_quotient`), which verify
    passes as a function that the first step calls; the spec's observer
    walk (:func:`~descat.estimation._observer_walk`) builds rows in table
    order up to each one read.  A set of observer states is an int mask,
    bit ``i`` standing for state ``i``, so the initial set is the mask 1.

    The plant's moves come from a table on the policy per plant (by
    value), one thread at a time: ``edges[q]`` lists the ``(event, dst,
    k)`` moves out of ``q`` in the plant's order, and ``specs[spec][q]``
    (``spec_edges[q]``) a sub-automaton's moves among them, each filled on
    first read and never changed.  ``k`` numbers the move's *kind*,
    ``sources[k]``: the event when unattacked, else the corruption
    automaton (one object per value in a policy).  Per kind, the relation
    keeps a ``{mask: mask}`` memo, ``memos[k]``, so a hit is one
    ``memos[k].get(mask)``; a caller whose rows keep their numbers across
    calls passes in ``memos`` it keeps, as the check does.  Under an
    attacked kind an observer state steps to everything some corruption
    word can drive it to (product reachability with the corruption
    automaton, so infinite attack languages are exact, reading a row only
    where the corruption goes on); under an event, by the event's
    projection.  A mask steps to the OR of its members' steps, the steps
    of their one-member masks, and the empty mask steps to itself.
    """

    __slots__ = ("plant", "rows", "entries", "edges", "sources", "kinds", "specs", "spec", "spec_edges", "memos")

    def __init__(self, plant: Automaton, rows, policy: SensorAttackPolicy, spec: Automaton | None = None, memos=None):
        memo, key = policy._memo, ("moves", plant)
        self.edges, self.sources, self.kinds, self.specs = memo.get(key) or memo.setdefault(key, ({}, [], {}, {}))
        self.plant, self.rows, self.entries, self.spec = plant, rows, policy.entries, spec
        self.spec_edges = self.specs.get(spec, {})  # put in specs once a state has passed
        self.memos: list[dict[int, int]] = [] if memos is None else memos
        self.memos += [{0: 0} for _ in self.sources[len(self.memos) :]]  # kinds listed since the memos were

    def moves(self, q: str) -> list[tuple[str, str, int]]:
        """The plant's ``(event, dst, k)`` moves out of ``q``, in its order; listed into the table on first read."""
        out = self.edges.get(q)
        if out is None:
            entries, kinds, sources, out = self.entries, self.kinds, self.sources, []
            for event, dst in self.plant.outgoing(q):
                f = entries.get((q, event, dst))
                key = event if f is None else id(f)
                k = kinds.get(key)
                if k is None:
                    k = kinds[key] = len(sources)
                    sources.append(event if f is None else f)
                    self.memos.append({0: 0})
                out.append((event, dst, k))
            self.edges[q] = out
        return out

    def spec_moves(self, q: str) -> tuple[list[tuple[str, str, int]], list[str]]:
        """The spec's moves out of ``q`` among the plant's, and their events; kept once all are the plant's."""
        found = self.spec_edges.get(q)
        if found is None:
            mine, moves = self.spec.outgoing(q), self.edges.get(q) or self.moves(q)
            if mine != self.plant.outgoing(q):  # else the spec keeps every plant move out of q
                moves = [move for move in moves if move[:2] in mine]
                if len(moves) != len(mine):  # the plant is deterministic: one move per event
                    raise InputError(_NOT_A_SUB_AUTOMATON)
            if not self.spec_edges:
                self.specs[self.spec] = self.spec_edges
            found = self.spec_edges[q] = moves, [event for event, _, _ in moves]
        return found

    def step(self, k: int, mask: int) -> int:
        """Successor of ``mask`` across a move of kind ``k``, kept in ``memos[k]``."""
        memo = self.memos[k]
        nxt = memo.get(mask)
        if nxt is None:
            if callable(self.rows):  # rows given as a function are built at the first step
                self.rows = self.rows()
            source, nxt = self.sources[k], 0
            for i in _bits(mask) if mask & (mask - 1) else (mask.bit_length() - 1,):
                one = memo.get(1 << i)  # a one-member mask's step is its member's
                if one is None:
                    one = memo[1 << i] = self._project(source, i) if source.__class__ is str else self._corrupt(source, i)
                nxt |= one
            memo[mask] = nxt
        return nxt

    def _project(self, event: str, i: int) -> int:
        if event not in self.plant.alphabet.observable:
            return 1 << i
        nxt = self.rows[i].get(event)
        return 0 if nxt is None else 1 << nxt

    def _corrupt(self, f: Automaton, i: int) -> int:
        found, rows = 0, self.rows
        start = (f.initial, i)
        seen = {start}
        stack = [start]
        while stack:
            fstate, x = stack.pop()
            if fstate in f.marked:
                found |= 1 << x
            for label, f2 in f.outgoing(fstate):  # a row is read only where the corruption goes on
                nxt = (f2, rows[x].get(label))
                if nxt[1] is not None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return found


def _quotient(table, controls) -> tuple[list[int], list[dict[str, int]], list]:
    """Classes of the table's states by control value and move row: Moore refinement, control as output.

    From the partition by control value (equal controls may be distinct
    objects), classes split by their members' successor classes until none
    splits; a missing move goes to a sink, state ``n``, whose control None
    no state has.  A round gathers each label's successor classes with one
    ``itemgetter`` (the sink keeps it returning a tuple for one state) and
    numbers signatures by first occurrence, so state 0 is in class 0.
    Returns each state's class, and each class's row (its first member's,
    mapped to classes) and control.
    """
    rows = table.rows
    n = len(rows)
    columns = [itemgetter(*map(methodcaller("get", label, n), rows), n) for label in sorted(set().union(*rows))]
    classes = [*controls, None]
    size = len(dict.fromkeys(classes))
    while True:
        signatures = list(zip(classes, *[column(classes) for column in columns]))
        numbers = dict(zip(dict.fromkeys(signatures), count()))
        classes = list(map(numbers.__getitem__, signatures))
        if len(numbers) == size:
            break
        size = len(numbers)
    least = dict(zip(reversed(classes), range(n, -1, -1)))  # each class's first member: the last value written
    firsts = [least[c] for c in range(size - 1)]  # the sink is the last class
    class_rows = [{label: classes[j] for label, j in rows[i].items()} for i in firsts]
    return classes[:n], class_rows, [controls[i] for i in firsts]


def _closed_loop(g: Automaton, h: Automaton | None, supervisor, attack, actuator_attackable, quotient: bool = False):
    """Set-up plant and spec, step relation, and the events each mask lets fire, of the attacked closed loop.

    The arena's nodes pair a set-up plant state with the mask of
    supervisor-observer states that some feasible attacked observation of
    the string so far reaches.  An event fires iff the plant allows it and
    it is uncontrollable, actuator-attackable, or enabled by the control of
    some tracked state; the mask advances through the step relation.
    With ``quotient`` the bits are the observer's classes, built at the
    first step; before it the only mask is 1, state 0 and class 0 alike.
    """
    ensure_estimate_based(supervisor)
    ensure_deterministic(g)
    g, h, policy = transition_based_setup(g, h, attack)
    table, controls = supervisor.observer.table, supervisor.control_table
    reduced: list = []  # the quotient's classes, rows and controls, once the first step has built them

    def rows():
        reduced.extend(_quotient(table, controls))
        return reduced[1]

    relation = _ObserverStepRelation(g, rows if quotient else table.rows, policy, h)
    free = g.alphabet.uncontrollable | actuator_attack_set(g.alphabet, actuator_attackable)
    return g, h, relation, lambda mask: free.union(*[(reduced[2] if reduced else controls)[i] for i in _bits(mask)])


def _walk(relation: _ObserverStepRelation, allowed, visit):
    """Breadth-first walk of the closed-loop arena from its initial node, until ``visit`` finds something.

    Each node is expanded once, in discovery order.  The moves that fire
    there (``allowed(mask)``, kept per mask, holds their event) are
    listed in the plant's order, sorted by event, and ``visit(node,
    events, successors)`` sees their events; only when it returns None
    does the walk step them, filling ``successors`` in parallel with
    ``events`` and queueing unseen successors.  Nodes thus come out
    ordered by the length-lexicographically least string reaching them.
    The first value other than None that ``visit`` returns ends the walk,
    which returns the least string reaching the node, rebuilt from parent
    pointers, and that value; a walk that exhausts the arena returns None.
    """
    edges, moves, memos, step = relation.edges, relation.moves, relation.memos, relation.step
    start = (relation.plant.initial, 1)
    parents = {start: None}
    fires: dict[int, frozenset[str]] = {}
    queue = [start]
    for node in queue:  # grows as nodes are found: a breadth-first queue
        q, mask = node
        fire = fires.get(mask) or fires.setdefault(mask, allowed(mask))
        out = edges.get(q) or moves(q)
        successors = []
        found = visit(node, [move[0] for move in out if move[0] in fire], successors)
        if found is not None:
            return _string_to(parents, node), found
        for event, dst, k in out:
            if event in fire:
                succ = (dst, memos[k].get(mask) or step(k, mask))  # a stored 0 is read again by step
                if succ not in parents:
                    parents[succ] = (node, event)
                    queue.append(succ)
                successors.append(succ)
    return None


def large_language_automaton(
    g: Automaton,
    supervisor,
    attack: SensorAttackPolicy | ObservationAttackStrategy,
    actuator_attackable: Iterable[str] | None = None,
) -> LargeLanguageAutomaton:
    """Product construction generating exactly the attacked closed loop's large language.

    Its states are the nodes of the closed-loop arena (set-up plant state,
    tracked observer states), named ``q|{x,...}``; every node is marked.
    Moves come from the set-up's move table on the attack: one thread per attack at a time.
    """
    g, _, relation, allowed = _closed_loop(g, None, supervisor, attack, actuator_attackable)
    state_names = supervisor.observer.table.names
    names, components, edges = {}, {}, []

    def record(node, events, successors):
        q, tracked = node
        members = sorted([state_names[x] for x in _bits(tracked)])
        names[node] = name = q + "|{" + ",".join(members) + "}"
        components[name] = (q, frozenset(members))
        edges.append((name, events, successors))  # the walk fills successors after this returns

    _walk(relation, allowed, record)
    automaton = Automaton(
        states=frozenset(components),
        alphabet=g.alphabet,
        transitions=frozenset(
            (src, event, names[dst]) for src, events, successors in edges for event, dst in zip(events, successors)
        ),
        initial=next(iter(components)),
        marked=frozenset(components),
    )
    return LargeLanguageAutomaton(automaton=automaton, components=components)


_NOT_A_SUB_AUTOMATON = "the specification must be a sub-automaton of the plant"


def verify_large_language_equals(
    g: Automaton,
    h: Automaton,
    supervisor,
    attack: SensorAttackPolicy | ObservationAttackStrategy,
    actuator_attackable: Iterable[str] | None = None,
) -> Verdict:
    """Exact language equality between the attacked closed loop's upper bound and the spec.

    Walks the closed-loop arena on the fly and stops at the first node
    where some event is allowed by only one of the closed loop and the
    spec; the string reaching that node, with that event, is a shortest
    distinguishing one.

    The spec ``h`` must be a sub-automaton of the plant ``g`` (after the
    attack's set-up): the same initial state, and every spec move out of
    a state is the plant's move by that event.  The plant is
    deterministic, so by induction the spec state of every node the walk
    expands is the node's plant state ``q``, and the spec allows at
    ``q`` exactly the events of ``h``'s moves out of ``q``.  The node
    therefore carries no spec state.  The move condition is checked
    lazily, once per plant state the walk expands, when those events are
    first listed; where it fails, or where the initial states differ,
    :class:`InputError` is raised, again on every call.  The spec may
    drop plant moves between its states.  Moves come from the set-up's
    move table on the attack, which the check fills too: one thread per attack.

    The walk steps the supervisor observer's classes (:func:`_quotient`),
    built at its first step, so a verify failing at the initial node
    builds none.  Verdict and witness are the unreduced walk's.  The
    quotient arena is the unreduced arena's image: a mask allows the OR of
    its members' controls, and a projection or corruption step (product
    reachability over rows) commutes with a bisimulation quotient.  So
    every string reaches a node with the same allowed events and spec
    state, and breadth-first order by least string stops at the same least
    string and event.
    """
    g, h, relation, allowed = _closed_loop(g, h, supervisor, attack, actuator_attackable, quotient=True)
    if h.initial != g.initial:
        raise InputError(_NOT_A_SUB_AUTOMATON)
    spec_edges, spec_moves = relation.spec_edges, relation.spec_moves

    def differs(node, events, _):
        expected = (spec_edges.get(node[0]) or spec_moves(node[0]))[1]
        if events == expected:
            return None
        event = min(set(events).symmetric_difference(expected))
        if event in expected:
            return event, "in the specification but not generated by the closed loop"
        return event, "generated by the closed loop but outside the specification"

    found = _walk(relation, allowed, differs)
    if found is None:
        return Verdict(status="holds")
    string, (event, side) = found
    return _fails(string, event, side)

