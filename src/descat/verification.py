"""Verification of attacked closed loops.

CA-controllability is decided exactly by reachability.  CA-observability
has no known exact decision procedure, so only a depth-bounded check is
offered and its positive answer is labelled ``holds-to-depth``.  The large
language (the upper bound of everything the attacked closed loop can
generate) is realized as a product automaton, and its equality with the
spec is decided on the fly.  Every check is one breadth-first search
(``automata.breadth_first``) over a finite arena; the closed-loop arena
pairs a plant state with the supervisor-observer states some attacked
observation reaches.  An attack is a policy or an observation-based strategy,
set up on plant and spec by :func:`~descat.attacks.transition_based_setup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .attacks import ObservationAttackStrategy, SensorAttackPolicy, transition_based_setup
from .automata import Automaton, Transition, Word, breadth_first, ensure_deterministic, ensure_plant_and_spec
from .errors import InputError
from .estimation import CAObserver, attacked_observer
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


def check_ca_controllability(
    g: Automaton,
    h: Automaton,
    uncontrollable: Iterable[str] | None = None,
    actuator_attackable: Iterable[str] | None = None,
) -> Verdict:
    """Exact check that no uncontrollable-or-attackable event escapes the spec.

    The safety language fails the check iff some reachable spec state has a
    plant transition labeled in the union of the uncontrollable and
    actuator-attackable sets whose target is unsafe; the counterexample
    carries a shortest string reaching that state.
    """
    ensure_plant_and_spec(g, h)
    uc = frozenset(uncontrollable) if uncontrollable is not None else g.alphabet.uncontrollable
    att = (
        frozenset(actuator_attackable)
        if actuator_attackable is not None
        else g.alphabet.actuator_attackable
    )
    unstoppable = uc | att
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
    """
    if depth is not None and depth < 1:
        raise InputError("depth must be at least 1")
    ensure_plant_and_spec(g, h)
    if isinstance(attack, ObservationAttackStrategy):
        g, h, attack = transition_based_setup(g, h, attack)
    observer, _ = attacked_observer(h, attack)
    depth = depth if depth is not None else 2 * (len(observer.observer.states) + len(g.states))
    relation = _ObserverStepRelation(observer, attack, h.alphabet.observable)

    disabled_cache: dict[str, frozenset[str]] = {}

    def disabled_for(observer_state: str) -> frozenset[str]:
        if observer_state not in disabled_cache:
            estimate = observer.plant_projection(observer_state)
            disabled_cache[observer_state] = disabled_set(estimate, g, h.states)
        return disabled_cache[observer_state]

    def expand(node):
        q, tracked = node
        return [
            (event, (dst, relation.advance((q, event, dst), tracked))) for event, dst in h.outgoing(q)
        ]

    start = (h.initial, frozenset({observer.observer.initial}))
    for (_, tracked), level, successors, string in breadth_first(start, expand):
        if level == depth:
            break
        for event, _ in successors:
            if all(event in disabled_for(x) for x in tracked):
                witness = "every feasible observation yields an estimate that must disable the event"
                return _fails(string(), event, witness, depth)
    return Verdict(status="holds-to-depth", depth=depth)


@dataclass(frozen=True)
class LargeLanguageAutomaton:
    """Automaton generating the upper bound of the attacked closed-loop behavior.

    Its states pair a plant state with the set of supervisor-observer
    states reachable under some feasible attacked observation of the
    string so far; ``components`` recovers those pairs.
    """

    automaton: Automaton
    components: Mapping[str, tuple[str, frozenset[str]]]

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))


class _ObserverStepRelation:
    """Per-plant-transition successor relation on supervisor-observer states.

    For an attacked transition, an observer state steps to everything some
    corruption word can drive it to (computed by product reachability with
    the corruption automaton, so infinite attack languages are exact).
    Unattacked transitions step by the event's projection.
    """

    def __init__(self, observer: CAObserver, policy: SensorAttackPolicy, observable: frozenset[str]):
        self.observer = observer.observer
        self.policy = policy
        self.observable = observable
        self._memo: dict[tuple[Transition, str], frozenset[str]] = {}

    def advance(self, tr: Transition, tracked: frozenset[str]) -> frozenset[str]:
        """Observer states some tracked state steps to across ``tr``."""
        for w in tracked:
            if (tr, w) not in self._memo:
                self._memo[tr, w] = self._compute(tr, w)
        return frozenset().union(*(self._memo[tr, w] for w in tracked))

    def _compute(self, tr: Transition, w: str) -> frozenset[str]:
        f = self.policy.language_automaton(tr)
        if f is None:
            event = tr[1]
            if event not in self.observable:
                return frozenset({w})
            nxt = self.observer.delta(w, event)
            return frozenset({nxt}) if nxt is not None else frozenset()
        found = set()
        start = (f.initial, w)
        seen = {start}
        stack = [start]
        while stack:
            fstate, x = stack.pop()
            if fstate in f.marked:
                found.add(x)
            for label, f2 in f.outgoing(fstate):
                x2 = self.observer.delta(x, label)
                if x2 is None:
                    continue
                nxt = (f2, x2)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(found)


def _closed_loop(g: Automaton, h: Automaton | None, supervisor, attack, actuator_attackable):
    """Set-up spec, start node and ``expand`` function of the attacked closed loop's arena.

    A node pairs a set-up plant state with the supervisor-observer states that
    some feasible attacked observation of the string so far reaches.  An
    event fires iff the plant allows it and it is uncontrollable,
    actuator-attackable, or enabled by the control of some tracked state;
    the tracked set advances through the per-transition observer relation.
    """
    ensure_estimate_based(supervisor)
    ensure_deterministic(g)
    g, h, policy = transition_based_setup(g, h, attack)
    att = (
        frozenset(actuator_attackable)
        if actuator_attackable is not None
        else g.alphabet.actuator_attackable
    )
    free = g.alphabet.uncontrollable | att
    controls = supervisor.controls
    relation = _ObserverStepRelation(supervisor.observer, policy, g.alphabet.observable)

    def expand(node):
        q, tracked = node
        return [
            (event, (dst, relation.advance((q, event, dst), tracked)))
            for event, dst in g.outgoing(q)
            if event in free or any(event in controls[w] for w in tracked)
        ]

    return h, (g.initial, frozenset({supervisor.observer.observer.initial})), expand


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
    _, start, expand = _closed_loop(g, None, supervisor, attack, actuator_attackable)
    names: dict[tuple[str, frozenset[str]], str] = {}
    edges = []
    for node, _, successors, _ in breadth_first(start, expand):
        q, tracked = node
        names[node] = q + "|{" + ",".join(sorted(tracked)) + "}"
        edges.extend((node, event, succ) for event, succ in successors)
    automaton = Automaton(
        states=frozenset(names.values()),
        alphabet=g.alphabet,
        transitions=frozenset((names[src], event, names[dst]) for src, event, dst in edges),
        initial=names[start],
        marked=frozenset(names.values()),
    )
    return LargeLanguageAutomaton(
        automaton=automaton, components={name: node for node, name in names.items()}
    )


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
    h, start, loop = _closed_loop(g, h, supervisor, attack, actuator_attackable)

    # A successor with a None side is an event only one side allows; the
    # walk returns at its source pair, so it is never expanded.
    def expand(pair):
        node, r = pair
        left = dict(loop(node))
        right = {event: h.delta(r, event) for event, _ in h.outgoing(r)}
        events = sorted(left.keys() | right.keys())
        return [(event, (left.get(event), right.get(event))) for event in events]

    for _, _, successors, string in breadth_first((start, h.initial), expand):
        for event, (node, r) in successors:
            if node is None or r is None:
                side = (
                    "generated by the closed loop but outside the specification"
                    if r is None
                    else "in the specification but not generated by the closed loop"
                )
                return _fails(string(), event, side)
    return Verdict(status="holds")
