"""Closed-loop adversarial simulation.

Executes the plant under a supervisor while an attacker corrupts both
channels: observations of attacked transitions are rewritten to words of
their corruption languages, and attackable controllable events are added
to or removed from each issued control.  The supervisor re-evaluates its
control after every emitted observation fragment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .attacks import delta_control, ensure_valid_policy, transition_based_setup
from .automata import Automaton, Word, bounded_marked_language, ensure_deterministic, natural_projection
from .errors import InputError

ATTACKER_KINDS = ("none", "random", "exhaustive")


@dataclass(frozen=True)
class AttackerStrategy:
    """How the adversary resolves its choices during a run.

    ``none`` performs no corruption at all; ``random`` draws every choice
    from a seeded generator; ``exhaustive`` explores all choices
    breadth-first up to the step bound and surfaces a violating run when
    one exists.  ``fragment_cap`` bounds the corruption words considered
    for attack languages with cycles (default: twice the corruption
    automaton's state count, which covers all simple accepting paths).
    """

    kind: str = "random"
    seed: int | None = None
    fragment_cap: int | None = None

    def __post_init__(self):
        if self.kind not in ATTACKER_KINDS:
            raise InputError(f"unknown attacker kind {self.kind!r}")

    @classmethod
    def none(cls) -> "AttackerStrategy":
        return cls(kind="none")

    @classmethod
    def random_choices(cls, seed: int | None = None) -> "AttackerStrategy":
        return cls(kind="random", seed=seed)

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


def _fragment_choices(f: Automaton, cap: int | None) -> list[Word]:
    limit = cap if cap is not None else 2 * len(f.states)
    words = bounded_marked_language(f, limit)
    return sorted(words, key=lambda w: (len(w), w))


def _control_deliveries(issued: frozenset[str], attackable: tuple[str, ...]) -> list[frozenset[str]]:
    return sorted(delta_control(issued, attackable), key=lambda c: (len(c), tuple(sorted(c))))


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

    The attacker's own ``seed`` takes precedence over the ``seed``
    argument; under ``exhaustive`` the run is deterministic and returns a
    shortest violating trace when one exists within the bound.
    """
    g, h, policy, att = _prepare(g, h, policy_or_strategy, actuator_attackable, max_steps)
    return _run(g, h, policy, att, supervisor, attacker, max_steps, seed)


def _prepare(g, h, policy_or_strategy, actuator_attackable, max_steps):
    """Checked plant, spec, transition-based policy and actuator-attackable events of a run."""
    if max_steps < 0:
        raise InputError("max_steps must be nonnegative")
    g, h, policy = transition_based_setup(g, h, policy_or_strategy)
    ensure_deterministic(g)
    ensure_valid_policy(g, policy)
    att = (
        tuple(sorted(actuator_attackable))
        if actuator_attackable is not None
        else tuple(sorted(g.alphabet.actuator_attackable))
    )
    return g, h, policy, att


def _run(g, h, policy, att, supervisor, attacker: AttackerStrategy, max_steps: int, seed: int | None) -> Trace:
    """One run of :func:`simulate` on the output of :func:`_prepare`."""
    cap = attacker.fragment_cap
    effective_seed = attacker.seed if attacker.seed is not None else seed
    if attacker.kind == "exhaustive":
        return _simulate_exhaustive(g, h, supervisor, policy, att, max_steps, cap)
    rng = random.Random(effective_seed)
    uncontrollable = g.alphabet.uncontrollable

    steps: list[TraceStep] = []
    q = g.initial
    observation: Word = ()
    safe = q in h.states
    for index in range(1, max_steps + 1):
        issued = supervisor.control_for(observation)
        if attacker.kind == "none":
            received = issued
        else:
            received = rng.choice(_control_deliveries(issued, att))
        enabled = sorted(
            event
            for event, _ in g.outgoing(q)
            if event in uncontrollable or event in received
        )
        if not enabled:
            break
        event = rng.choice(enabled)
        dst = g.delta(q, event)
        tr = (q, event, dst)
        f = policy.language_automaton(tr)
        if f is None or attacker.kind == "none":
            fragment = natural_projection((event,), g.alphabet)
        else:
            fragment = rng.choice(_fragment_choices(f, cap))
        q = dst
        observation = observation + fragment
        safe = safe and q in h.states
        steps.append(
            TraceStep(
                index=index,
                event=event,
                issued=tuple(sorted(issued)),
                received=tuple(sorted(received)),
                fragment=fragment,
                safe=safe,
            )
        )
    return Trace(
        steps=tuple(steps),
        safe=all(s.safe for s in steps) if steps else g.initial in h.states,
        attacker=attacker.kind,
        seed=effective_seed,
        fragment_cap=cap if cap is not None else max((2 * len(f.states) for _, f in policy.sorted_entries()), default=0),
    )


def _simulate_exhaustive(g, h, supervisor, policy, att, max_steps, cap) -> Trace:
    """Breadth-first search over all attacker and plant choices.

    Returns a shortest violating trace if the adversary can force one
    within ``max_steps`` events, otherwise a deterministic maximal safe
    run (first branch everywhere).
    """
    uncontrollable = g.alphabet.uncontrollable
    effective_cap = cap if cap is not None else max(
        (2 * len(f.states) for _, f in policy.sorted_entries()), default=0
    )

    def make_trace(steps: tuple[TraceStep, ...]) -> Trace:
        return Trace(
            steps=steps,
            safe=all(s.safe for s in steps) if steps else g.initial in h.states,
            attacker="exhaustive",
            seed=None,
            fragment_cap=effective_cap,
        )

    start = (g.initial, (), ())  # plant state, observation, trace steps
    frontier = [start]
    seen = {(g.initial, ())}
    fallback: tuple[TraceStep, ...] = ()
    for _ in range(max_steps):
        nxt = []
        for q, observation, steps in frontier:
            issued = supervisor.control_for(observation)
            for received in _control_deliveries(issued, att):
                enabled = sorted(
                    event
                    for event, _ in g.outgoing(q)
                    if event in uncontrollable or event in received
                )
                for event in enabled:
                    dst = g.delta(q, event)
                    f = policy.language_automaton((q, event, dst))
                    fragments = (
                        [natural_projection((event,), g.alphabet)]
                        if f is None
                        else _fragment_choices(f, cap)
                    )
                    for fragment in fragments:
                        new_obs = observation + fragment
                        step = TraceStep(
                            index=len(steps) + 1,
                            event=event,
                            issued=tuple(sorted(issued)),
                            received=tuple(sorted(received)),
                            fragment=fragment,
                            safe=dst in h.states and (not steps or steps[-1].safe),
                        )
                        new_steps = steps + (step,)
                        if not step.safe:
                            return make_trace(new_steps)
                        key = (dst, new_obs)
                        if key in seen:
                            continue
                        seen.add(key)
                        nxt.append((dst, new_obs, new_steps))
        if not nxt:
            break
        frontier = nxt
        if len(frontier[0][2]) > len(fallback):
            fallback = frontier[0][2]
    return make_trace(fallback)


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

    Trial ``i`` uses seed ``base_seed + i``; a single trial therefore
    reproduces :func:`simulate` with ``base_seed``.  An exhaustive
    attacker ignores the trial count (one deterministic search).
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    violating: list[Trace] = []
    seen_violations: set[Word] = set()
    visited: set[str | None] = set()
    violation_count = 0
    runs = 1 if attacker.kind == "exhaustive" else trials
    g, h, policy, att = _prepare(g, h, policy_or_strategy, actuator_attackable, max_steps)
    for i in range(runs):
        seed = None if base_seed is None else base_seed + i
        trace = _run(g, h, policy, att, supervisor, attacker, max_steps, seed)
        prefix: Word = ()
        visited.add(supervisor.observer_state_for(prefix))
        for step in trace.steps:
            prefix = prefix + step.fragment
            visited.add(supervisor.observer_state_for(prefix))
        if not trace.safe:
            violation_count += 1
            if trace.plant_string not in seen_violations:
                seen_violations.add(trace.plant_string)
                violating.append(trace)
    visited.discard(None)
    return CampaignReport(
        trials=runs,
        max_steps=max_steps,
        base_seed=base_seed,
        attacker=attacker.kind,
        violation_count=violation_count,
        violating=tuple(violating),
        observer_states_visited=len(visited),
        observer_states_total=len(supervisor.observer.observer.states),
    )
