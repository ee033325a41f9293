"""Closed-loop adversarial simulation.

Executes the plant under a supervisor while an attacker corrupts both
channels: observations of attacked transitions are rewritten to words of
their corruption languages, and attackable controllable events are added
to or removed from each issued control.  The supervisor re-evaluates its
control after every emitted observation fragment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .attacks import actuator_attack_set, delta_control, transition_based_setup
from .automata import (
    Automaton,
    Transition,
    Word,
    bounded_marked_language,
    breadth_first,
    ensure_deterministic,
    natural_projection,
    shortest_marked_length,
)
from .errors import InputError
from .synthesis import ensure_estimate_based

ATTACKER_KINDS = ("none", "random", "exhaustive")


@dataclass(frozen=True)
class AttackerStrategy:
    """How the adversary resolves its choices during a run.

    ``none`` performs no corruption at all; ``random`` draws every choice
    from the run's generator, seeded only by the run (``simulate``'s
    ``seed``, or ``run_campaign``'s ``base_seed`` plus the trial index);
    ``exhaustive`` explores all choices up to the step bound on the finite
    arena of plant and observer states and surfaces a shortest violating
    run when one exists.  ``fragment_cap`` bounds the corruption words
    considered for attack languages with cycles (default: twice the
    corruption automaton's state count, which covers all simple accepting
    paths); a cap below the shortest word of some attack language is an
    :class:`InputError`.
    """

    kind: str = "random"
    fragment_cap: int | None = None

    def __post_init__(self):
        if self.kind not in ATTACKER_KINDS:
            raise InputError(f"unknown attacker kind {self.kind!r}")

    @classmethod
    def none(cls) -> "AttackerStrategy":
        return cls(kind="none")

    @classmethod
    def random_choices(cls) -> "AttackerStrategy":
        return cls(kind="random")

    @classmethod
    def exhaustive(cls) -> "AttackerStrategy":
        return cls(kind="exhaustive")


@dataclass(frozen=True)
class TraceStep:
    index: int
    event: str
    issued: tuple[str, ...]
    received: tuple[str, ...]
    fragment: tuple[str, ...]
    safe: bool

    def as_record(self) -> str:
        frag = " ".join(self.fragment) if self.fragment else "-"
        return (
            f"{self.index}, {self.event}, "
            f"{{{' '.join(self.issued)}}}, {{{' '.join(self.received)}}}, "
            f"{frag}, {'true' if self.safe else 'false'}"
        )


@dataclass(frozen=True)
class Trace:
    """One closed-loop run with per-step controls, fragments and safety flags."""

    steps: tuple[TraceStep, ...]
    safe: bool
    attacker: str
    seed: int | None
    fragment_cap: int

    @property
    def plant_string(self) -> Word:
        return tuple(step.event for step in self.steps)

    @property
    def observation(self) -> Word:
        out: list[str] = []
        for step in self.steps:
            out.extend(step.fragment)
        return tuple(out)

    def to_lines(self) -> list[str]:
        header = "# step, plant_event, issued_control, received_control, observation_fragment, safe"
        return [header] + [step.as_record() for step in self.steps]

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"

    def as_dict(self) -> dict:
        return {
            "attacker": self.attacker,
            "seed": self.seed,
            "fragment_cap": self.fragment_cap,
            "safe": self.safe,
            "steps": [
                {
                    "step": s.index,
                    "event": s.event,
                    "issued": list(s.issued),
                    "received": list(s.received),
                    "fragment": list(s.fragment),
                    "safe": s.safe,
                }
                for s in self.steps
            ],
        }


def simulate(
    g: Automaton,
    h: Automaton,
    supervisor,
    policy_or_strategy,
    actuator_attackable: Iterable[str] | None = None,
    attacker: AttackerStrategy = AttackerStrategy(),
    max_steps: int = 50,
    seed: int | None = None,
) -> Trace:
    """Run one attacked closed loop for at most ``max_steps`` plant events.

    Each step: the supervisor issues the control for the observation seen
    so far, the attacker perturbs it within the attackable events, an
    enabled-or-uncontrollable plant event fires, and the attacker picks
    the emitted observation fragment for attacked transitions.  The trace
    flags each prefix's membership in the safety language.

    The supervisor must be estimate-based (see :class:`Supervisor`);
    anything else raises :class:`UnsupportedSupervisorError` once the
    other inputs have been checked.  Its observer state is carried
    through the run as a number of the observer's table (see
    :class:`~descat.automata.SubsetTable`) and advanced by each fragment,
    so a step is one memo lookup of the moves enabled at the plant state
    under the received control plus one table step over the fragment,
    not a walk of the observation so far, and no observer state is named.

    ``seed`` is the only seed of the run's choices, the plant's and a
    ``random`` attacker's.  Under ``exhaustive`` the run is deterministic
    and returns a shortest violating trace when one exists within the
    bound, otherwise the first run of the deepest level of a breadth-first
    search over (plant state, observation).  Both are found on the finite
    arena of plant and observer states, so the nodes expanded stop growing
    with ``max_steps`` once that arena is saturated.

    The attack is checked and converted once per strategy and plant,
    across calls (see :func:`~descat.attacks.transition_based_setup`), so
    a sweep over ``max_steps`` pays for it on its first call only.  So
    are the run tables (see :class:`_PreparedRun`): they are kept on the
    attack per set-up, and every later ``simulate`` or
    :func:`run_campaign` on it reads them, random and exhaustive attackers
    alike.  They grow unlocked, so one attack object serves one thread at
    a time.
    """
    prepared = _PreparedRun(g, h, supervisor, policy_or_strategy, actuator_attackable, attacker, max_steps)
    records, _, _ = prepared.walk(seed, None)
    return prepared.trace(records, seed)


class _PreparedRun:
    """The checked inputs of :func:`simulate`, ready to run once per seed.

    The transition-based setup is memoised on the attack object.  The run
    tables do not depend on the supervisor: the fragments the attacker may
    emit on each attacked transition, the deliveries of each issued
    control with the sorted names of each control, and the moves enabled
    at each plant state under each received control.  They are filled as
    first needed and kept in the (converted) policy's memo under
    ``("runs", plant, spec, passive, fragment_cap, actuator set)``, with
    plant and spec compared by value, so every call on one set-up shares
    them, one thread at a time.  Fragments are enumerated once per
    distinct corruption automaton (keyed on its identity in the policy's
    ``automata``) and then looked up per transition.  A run yields plain
    records, (event, issued names, received names, fragment, safe) per
    step; :meth:`trace` turns them into a :class:`Trace` only for a
    caller that keeps one.
    """

    def __init__(self, g, h, supervisor, policy_or_strategy, actuator_attackable, attacker, max_steps):
        if max_steps < 0:
            raise InputError("max_steps must be nonnegative")
        g, h, policy = transition_based_setup(g, h, policy_or_strategy)
        ensure_deterministic(g)
        ensure_estimate_based(supervisor)
        self.g, self.h, self.policy, self.supervisor = g, h, policy, supervisor
        self.attacker, self.max_steps = attacker, max_steps
        self.uncontrollable = g.alphabet.uncontrollable
        self.att = tuple(sorted(actuator_attack_set(g.alphabet, actuator_attackable)))
        cap = attacker.fragment_cap
        # A corruption automaton's cap: the given one, else twice its
        # states, which covers all its simple accepting paths.
        self._cap = (lambda f: cap) if cap is not None else (lambda f: 2 * len(f.states))
        if cap is not None and attacker.kind != "none":
            # The attacker only emits words within the cap: a transition
            # without one could never fire.  Each distinct automaton is
            # searched once.
            shortest = {id(f): shortest_marked_length(f) for f in policy.automata}
            short = [tr for tr, f in policy.sorted_entries() if shortest[id(f)] > cap]
            if short:
                raise InputError(
                    "; ".join(f"fragment_cap {cap} admits no corruption word for transition {tr!r}" for tr in short)
                )
        self.fragment_cap = max(map(self._cap, policy.automata), default=cap or 0)
        memo, key = policy._memo, ("runs", g, h, attacker.kind == "none", cap, self.att)
        tables = memo.get(key) or memo.setdefault(key, ({}, {}, {}, {}, {}))
        self._fragments, self._words, self._names, self._plans, self._moves = tables

    def fragment_choices(self, tr: Transition) -> list[Word] | None:
        """Corruption words for ``tr``, shortest first; None when ``tr`` is not attacked."""
        if tr not in self._fragments:
            f = self.policy.language_automaton(tr)
            if f is not None and id(f) not in self._words:
                self._words[id(f)] = sorted(bounded_marked_language(f, self._cap(f)), key=lambda w: (len(w), w))
            self._fragments[tr] = None if f is None else self._words[id(f)]
        return self._fragments[tr]

    def names(self, control: frozenset[str]) -> tuple[str, ...]:
        """``control``'s events, sorted: built once per distinct control."""
        if control not in self._names:
            self._names[control] = tuple(sorted(control))
        return self._names[control]

    def plan(self, issued: frozenset[str]) -> tuple:
        """``issued``'s names and the controls the plant may receive for it, in a fixed order.

        Each delivery is (received, its names, {plant state: moves}); a
        passive attacker delivers ``issued`` itself.  The moves under a
        received control are kept in one dict, shared by every issued
        control that delivers it, and filled by :meth:`moves`.
        """
        received = [issued]
        if self.attacker.kind != "none":
            received = sorted(delta_control(issued, self.att), key=lambda c: (len(c), self.names(c)))
        deliveries = [(r, self.names(r), self._moves.setdefault(r, {})) for r in received]
        plan = self._plans[issued] = (self.names(issued), deliveries)
        return plan

    def moves(self, q: str, received: frozenset[str], known: dict[str, list]) -> list:
        """The moves that may fire at ``q`` under ``received``, by event, kept in ``known`` under ``q``.

        A move is (event, target, target safe, fragment, choices): an
        uncontrollable or received event.  ``choices`` is the attacker's
        list of corruption words, or None when the transition emits
        ``fragment``, its projection, without a draw.  Callers read
        ``known`` first, so each (plant state, received control) is listed once.
        """
        uncontrollable, safe, passive = self.uncontrollable, self.h.states, self.attacker.kind == "none"
        out = known[q] = []
        for event, dst in self.g.outgoing(q):
            if event in uncontrollable or event in received:
                choices = None if passive else self.fragment_choices((q, event, dst))
                fragment = natural_projection((event,), self.g.alphabet) if choices is None else None
                out.append((event, dst, dst in safe, fragment, choices))
        return out

    def safe(self, records: list[tuple]) -> bool:
        """Whether a run with these records stayed in the specification."""
        return records[-1][4] if records else self.g.initial in self.h.states

    def trace(self, records: list[tuple], seed: int | None) -> Trace:
        """The :class:`Trace` of a run's records; an exhaustive run has no seed."""
        return Trace(
            steps=tuple(TraceStep(i, *record) for i, record in enumerate(records, 1)),
            safe=self.safe(records),
            attacker=self.attacker.kind,
            seed=None if self.attacker.kind == "exhaustive" else seed,
            fragment_cap=self.fragment_cap,
        )

    def walk(self, seed: int | None, visited: set | None) -> tuple[list[tuple], int | None, Word]:
        """One run's records, the observer state it ends in and the fragment not yet read there.

        Every observer state the run steps to, from the initial one on, is
        added to ``visited``.  A fragment is read only when a later step
        needs a control, so the last one is left unread: stepping the
        returned state by it gives the state after the run.  With
        ``visited`` None no caller reads the states, and an exhaustive
        run's records are not stepped again (its returned state is then
        the initial one).

        A ``random`` or passive run draws from ``random.Random(seed)`` in
        this order per step: a delivery of the issued control (not when
        passive), an enabled move, then a corruption word when the
        transition is attacked, each by ``rng.choice`` on a list in a fixed
        order, so a seed gives one run.  It stops at ``max_steps`` or when
        no event is enabled.
        """
        table = self.supervisor.observer.table
        x = table.initial
        if self.attacker.kind == "exhaustive":
            records = self._exhaustive()
            if visited is not None:
                visited.add(x)
                for r in records[:-1]:
                    x = table.step(x, r[3])
                    visited.add(x)
            return records, x, records[-1][3] if records else ()
        cover = (set() if visited is None else visited).add
        cover(x)
        choice = random.Random(seed).choice
        step, controls, default = table.step, self.supervisor.control_table, self.supervisor.default_control
        plans, passive = self._plans, self.attacker.kind == "none"
        records: list[tuple] = []
        keep = records.append
        q = self.g.initial
        safe = q in self.h.states
        fragment: Word = ()
        for _ in range(self.max_steps):
            x = step(x, fragment)
            cover(x)
            issued = default if x is None else controls[x]
            issued_names, deliveries = plans.get(issued) or self.plan(issued)
            received, received_names, known = deliveries[0] if passive else choice(deliveries)
            enabled = known[q] if q in known else self.moves(q, received, known)
            if not enabled:
                fragment = ()
                break
            event, q, target_safe, fragment, choices = choice(enabled)
            if choices is not None:
                fragment = choice(choices)
            safe = safe and target_safe
            keep((event, issued_names, received_names, fragment, safe))
        return records, x, fragment

    def _exhaustive(self) -> list[tuple]:
        """Search all attacker and plant choices on a finite arena.

        The supervisor is estimate-based, so what a run can do next depends
        only on the plant state ``q`` and the supervisor's observer state.
        An arena node is (``q``, observer state before the last fragment,
        that fragment): the last fragment is read only when its node is
        expanded, and nodes at ``max_steps`` are not expanded.  An edge is
        labelled (event, issued control, received control, fragment), and
        a node's edges are listed once, deliveries, then enabled events,
        then fragments.  A walk is a sequence of labels from the start;
        "least" means least in that emission order.

        *Violation.*  Breadth-first search finds the least shortest walk
        whose last edge leaves the specification.  A walk's future depends
        only on its arena node, so this is the least shortest violating
        walk among all label sequences, which is the run returned.

        *Safe fallback.*  With no violation within ``max_steps``, the run
        returned is the least walk of length ``D`` whose end (plant state,
        observation) no shorter walk reaches; call such a walk *tight*.
        ``D`` is the greatest length at most ``max_steps`` of a tight walk:
        the last level of a breadth-first search over (plant state,
        observation), whose first node it is.  Every prefix of a tight
        walk is tight, so :func:`_tight_walk` finds the walk depth first.
        """
        g, h, supervisor = self.g, self.h, self.supervisor
        table, controls, default = supervisor.observer.table, supervisor.control_table, supervisor.default_control
        start = (g.initial, table.initial, ())
        level = {start: 0}
        edges: dict[tuple, list] = {}

        def expand(node):
            if level[node] == self.max_steps:
                return ()
            q, x, last = node
            x = table.step(x, last)
            issued = default if x is None else controls[x]
            out = edges[node] = []
            issued_names, deliveries = self._plans.get(issued) or self.plan(issued)
            for received, received_names, known in deliveries:
                for event, dst, _, fragment, choices in known[q] if q in known else self.moves(q, received, known):
                    for fragment in (fragment,) if choices is None else choices:
                        succ = (dst, x, fragment)
                        level.setdefault(succ, level[node] + 1)
                        out.append(((event, issued_names, received_names, fragment), succ))
            return out

        longest = _walk_lengths(edges)
        for _, depth, successors, string in breadth_first(start, expand):
            if depth == self.max_steps:  # a walk reaches the bound
                goal = self.max_steps
                break
            for label, (dst, _, _) in successors:
                if dst not in h.states:
                    return self._records_along(string() + (label,), last_safe=False)
        else:
            goal = longest(start, self.max_steps)
        # An edge's fragment is a listed corruption word (sorted, longest last) or one event's projection.
        span = max([1] + [len(words[-1]) for words in self._words.values() if words])
        walk = _tight_walk(start, edges, longest, goal, span, floor=goal)
        if len(walk) < goal:
            walk = _tight_walk(start, edges, longest, goal, span, floor=0)
        return self._records_along(walk, last_safe=True)

    def _records_along(self, labels: tuple, last_safe: bool) -> list[tuple]:
        """The exhaustive run's records through the search's edge ``labels``; only the last step may be unsafe."""
        return [(*label, last_safe or i < len(labels)) for i, label in enumerate(labels, 1)]


def _walk_lengths(edges: dict):
    """``longest(node, cap)``: the least of ``cap`` and the longest walk from ``node`` along ``edges``.

    A node that reaches a cycle walks forever; a node without edges, a
    dead end or one at the step bound, walks 0 steps.  Each query searches
    depth first, only as deep as its cap, and stops at a child as soon as
    the cap is reached.  An answer below the cap is exact and kept in
    ``exact``; an answer at the cap is a lower bound, kept in ``least``.  A
    cycle met on the search path means every node on the path walks
    forever, which ``least`` keeps as infinity.  The search keeps its own
    stack, so a cap beyond the recursion limit is fine.
    """
    exact: dict = {}
    least: dict = {}

    def known(node, cap: int):
        if cap <= 0:
            return 0
        if node in exact:
            return min(cap, exact[node])
        return cap if least.get(node, 0) >= cap else None

    def longest(node, cap: int) -> int:
        found = known(node, cap)
        if found is not None:
            return found
        path = {node}
        stack = [[node, cap, 0, (child for _, child in edges.get(node, ()))]]
        while True:
            frame = stack[-1]
            node, cap, best, children = frame
            child = next(children, None) if best < cap else None
            if child is not None:
                if child in path:
                    for node in path:
                        least[node] = math.inf
                    return stack[0][1]
                found = known(child, cap - 1)
                if found is None:
                    path.add(child)
                    stack.append([child, cap - 1, 0, (grandchild for _, grandchild in edges.get(child, ()))])
                else:
                    frame[2] = max(best, found + 1)
                continue
            if best < cap:
                exact[node] = best
            else:
                least[node] = cap
            stack.pop()
            if not stack:
                return best
            path.remove(node)
            stack[-1][2] = max(stack[-1][2], best + 1)

    return longest


def _tight_walk(start, edges: dict, longest, goal: int, span: int, floor: int) -> tuple:
    """Labels of the least of the longest tight walks of length at most ``goal``.

    Depth first in emission order, so walks are met least first.  A child
    is skipped when its (plant state, observation) was entered before (a
    later walk there has the same futures and is not less), when it
    cannot walk on to depth ``floor`` or past the longest walk found so
    far (``longest``, see :func:`_walk_lengths`), or when a shorter walk
    reaches its plant state with its observation.  With ``floor=goal`` the
    search gives up early when no tight walk reaches ``goal``.  The last
    test reads ``reach``, kept for the prefixes of the current observation
    (see :func:`_extend_reach`); ``span`` bounds the length of a fragment.
    """
    best: tuple = ()
    labels: list = []
    entered = {(start[0], ())}
    reach = [_settle({0: [start]}, edges)]
    stack = [(start, (), iter(edges.get(start, ())))]
    while stack and len(best) < goal:
        _, observation, out = stack[-1]
        depth = len(stack)
        need = max(floor, len(best) + 1) - depth
        for label, child in out:
            key = (child[0], observation + label[3])
            if key in entered or longest(child, need) < need:
                continue
            del reach[len(observation) + 1 :]
            _extend_reach(reach, edges, key[1], span)
            if min((d for node, d in reach[-1].items() if node[0] == key[0]), default=depth) < depth:
                continue
            entered.add(key)
            labels.append(label)
            if depth > len(best):
                best = tuple(labels)
            stack.append((child, key[1], iter(edges.get(child, ()))))
            break
        else:
            stack.pop()
            if labels:
                labels.pop()
    return best


def _extend_reach(reach: list, edges: dict, observation: tuple, span: int) -> None:
    """Extend ``reach`` to every prefix of ``observation``.

    ``reach[i]`` maps each arena node to the fewest steps of a walk to it
    that reads exactly ``observation[:i]``; on entry ``reach`` holds these
    maps for a prefix of ``observation``.  A walk's last nonempty fragment
    is at most ``span`` long, so only the last ``span`` maps seed the next.
    """
    while len(reach) <= len(observation):
        i = len(reach)
        seeds: dict[int, list] = {}
        for j in range(max(0, i - span), i):
            read = observation[j:i]
            for node, d in reach[j].items():
                for (*_, fragment), child in edges.get(node, ()):
                    if fragment == read:
                        seeds.setdefault(d + 1, []).append(child)
        reach.append(_settle(seeds, edges))


def _settle(seeds: dict, edges: dict) -> dict:
    """Fewest steps to each node from ``seeds`` (steps -> nodes) along edges that read nothing."""
    out: dict = {}
    d = min(seeds, default=0)
    while seeds:
        for node in seeds.pop(d, ()):
            if node not in out:
                out[node] = d
                silent = [child for (*_, fragment), child in edges.get(node, ()) if not fragment]
                seeds.setdefault(d + 1, []).extend(silent)
        d += 1
    return out


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of repeated simulations: violations found and coverage reached."""

    trials: int
    max_steps: int
    base_seed: int | None
    attacker: str
    violation_count: int
    violating: tuple[Trace, ...]
    observer_states_visited: int
    observer_states_total: int

    @property
    def distinct_violations(self) -> tuple[Word, ...]:
        return tuple(sorted({t.plant_string for t in self.violating}))

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "max_steps": self.max_steps,
            "base_seed": self.base_seed,
            "attacker": self.attacker,
            "violations": self.violation_count,
            "distinct_violating_strings": [list(s) for s in self.distinct_violations],
            "observer_states_visited": self.observer_states_visited,
            "observer_states_total": self.observer_states_total,
        }


def run_campaign(
    g: Automaton,
    h: Automaton,
    supervisor,
    policy_or_strategy,
    actuator_attackable: Iterable[str] | None = None,
    trials: int = 100,
    max_steps: int = 50,
    base_seed: int | None = 0,
    attacker: AttackerStrategy = AttackerStrategy(),
) -> CampaignReport:
    """Run ``trials`` seeded simulations and aggregate safety and coverage.

    Trial ``i`` uses seed ``base_seed + i`` (the attacker carries no seed
    of its own); a single trial therefore reproduces :func:`simulate`
    with ``base_seed``.  An exhaustive attacker ignores the trial count
    (one deterministic search).  The supervisor must be estimate-based, as
    for :func:`simulate`; the inputs are checked once, before the first
    trial, and the attack is converted once per strategy and plant, across
    calls.  The trials read the set-up's run tables, which
    :func:`simulate` shares across calls, one thread at a time.  A trial is a run's plain records (see :class:`_PreparedRun`),
    one memo lookup plus the fragment's table step each; its verdict is
    read off the last record, and a :class:`Trace` is built only for a
    trial whose plant string is a new violation, from the records it
    already has, so no trial is run twice.  Coverage is the set of
    observer states the runs stepped to, plus each run's last fragment
    stepped once, counted as table numbers against the table's size, so
    a campaign names no observer state.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    violating: list[Trace] = []
    seen_violations: set[Word] = set()
    visited: set[int | None] = set()
    violation_count = 0
    runs = 1 if attacker.kind == "exhaustive" else trials
    prepared = _PreparedRun(g, h, supervisor, policy_or_strategy, actuator_attackable, attacker, max_steps)
    table = supervisor.observer.table
    for i in range(runs):
        seed = None if base_seed is None else base_seed + i
        records, x, unread = prepared.walk(seed, visited)
        visited.add(table.step(x, unread))
        if not prepared.safe(records):
            violation_count += 1
            string = tuple(record[0] for record in records)
            if string not in seen_violations:
                seen_violations.add(string)
                violating.append(prepared.trace(records, seed))
    visited.discard(None)
    return CampaignReport(
        trials=runs,
        max_steps=max_steps,
        base_seed=base_seed,
        attacker=attacker.kind,
        violation_count=violation_count,
        violating=tuple(violating),
        observer_states_visited=len(visited),
        observer_states_total=len(table.masks),
    )
