"""Shared corpus fixtures and randomized model generation."""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

import pytest

from descat import (
    Automaton,
    EventAlphabet,
    ObservationAttackStrategy,
    SensorAttackPolicy,
    Supervisor,
    sub_automaton,
    synthesize_ca_supervisor,
)

EVENTS = ("alpha", "beta", "lambda", "mu")


def make_alphabet(actuator_attackable=("alpha", "beta")) -> EventAlphabet:
    return EventAlphabet(
        events=frozenset(EVENTS),
        controllable=frozenset(EVENTS),
        observable=frozenset(EVENTS),
        sensor_attackable=frozenset({"lambda", "mu"}),
        actuator_attackable=frozenset(actuator_attackable),
    )


@dataclass(frozen=True)
class CycleModel:
    """The running corpus model: a 3-state cycle with an unsafe alpha branch."""

    alphabet: EventAlphabet
    plant: Automaton
    spec: Automaton
    f1: Automaton
    f2: Automaton
    policy: SensorAttackPolicy


def make_cycle(actuator_attackable=("alpha", "beta")) -> CycleModel:
    alphabet = make_alphabet(actuator_attackable)
    plant = Automaton(
        states={"1", "2", "3", "4"},
        alphabet=alphabet,
        transitions={
            ("1", "alpha", "2"),
            ("2", "alpha", "4"),
            ("2", "lambda", "3"),
            ("3", "mu", "1"),
        },
        initial="1",
    )
    f1 = Automaton(
        states={"A", "B", "C"},
        alphabet=alphabet,
        transitions={("A", "lambda", "C"), ("C", "mu", "B")},
        initial="A",
        marked={"A", "B", "C"},
    )
    f2 = Automaton(
        states={"D", "E"},
        alphabet=alphabet,
        transitions={("D", "mu", "E"), ("D", "beta", "E")},
        initial="D",
        marked={"E"},
    )
    policy = SensorAttackPolicy.from_transitions(
        {("2", "lambda", "3"): f1, ("3", "mu", "1"): f2}
    )
    return CycleModel(
        alphabet=alphabet,
        plant=plant,
        spec=sub_automaton(plant, {"1", "2", "3"}),
        f1=f1,
        f2=f2,
        policy=policy,
    )


def make_cycle_strategy(model: CycleModel) -> ObservationAttackStrategy:
    """Observation-based variant of the cycle attacks (context automaton + map)."""
    sa = Automaton(
        states={"z1", "z2", "z3", "z4", "z5"},
        alphabet=model.alphabet.observable_restriction(),
        transitions={
            ("z1", "alpha", "z2"),
            ("z2", "alpha", "z4"),
            ("z2", "lambda", "z3"),
            ("z3", "mu", "z5"),
            ("z5", "alpha", "z2"),
        },
        initial="z1",
    )
    return ObservationAttackStrategy(
        sa=sa, omega={("z2", "lambda"): model.f1, ("z3", "mu"): model.f2}
    )


@pytest.fixture
def cycle() -> CycleModel:
    """Corpus model with both actuators attackable (no safe supervisor exists)."""
    return make_cycle(("alpha", "beta"))


@pytest.fixture
def cycle_beta() -> CycleModel:
    """Corpus model with only beta attackable (a safe supervisor exists)."""
    return make_cycle(("beta",))


@pytest.fixture
def cycle_strategy(cycle_beta) -> ObservationAttackStrategy:
    return make_cycle_strategy(cycle_beta)


# --- randomized models ----------------------------------------------------

EVENT_POOL = ("a", "b", "c", "d")


def random_attack_automaton(rng: random.Random, alphabet: EventAlphabet, acyclic: bool) -> Automaton:
    n = rng.randint(1, 3)
    states = [f"f{i}" for i in range(n)]
    labels = sorted(alphabet.observable)
    slots = [(i, label) for i in range(n) for label in labels if not (acyclic and i == n - 1)]
    rng.shuffle(slots)
    transitions = []
    # keep corruption languages small so product enumerations stay cheap
    for i, label in slots[: rng.randint(0, 3)]:
        if acyclic:
            j = rng.randint(i + 1, n - 1)
        else:
            j = rng.randrange(n)
        transitions.append((states[i], label, states[j]))
    reachable = {states[0]}
    changed = True
    while changed:
        changed = False
        for src, _, dst in transitions:
            if src in reachable and dst not in reachable:
                reachable.add(dst)
                changed = True
    marked = {rng.choice(sorted(reachable))}
    for s in states:
        if rng.random() < 0.25:
            marked.add(s)
    return Automaton(
        states=frozenset(states),
        alphabet=alphabet,
        transitions=frozenset(transitions),
        initial=states[0],
        marked=frozenset(marked),
    )


def random_model(
    rng: random.Random,
    max_states: int = 6,
    acyclic_attacks: bool = True,
) -> tuple[Automaton, SensorAttackPolicy]:
    """A small deterministic plant with a covering sensor-attack policy."""
    events = list(EVENT_POOL[: rng.randint(2, 4)])
    states = [f"q{i}" for i in range(rng.randint(2, max_states))]
    observable = frozenset(e for e in events if rng.random() < 0.8)
    sensor = frozenset(sorted(e for e in sorted(observable) if rng.random() < 0.5)[:2])
    controllable = frozenset(e for e in events if rng.random() < 0.7)
    actuator = frozenset(e for e in sorted(controllable) if rng.random() < 0.4)
    alphabet = EventAlphabet(
        events=frozenset(events),
        controllable=controllable,
        observable=observable,
        sensor_attackable=sensor,
        actuator_attackable=actuator,
    )
    # spine first so every state is reachable, then extra edges
    transitions = set()
    used_slots = set()
    for i in range(1, len(states)):
        slots = [
            (src, e)
            for src in states[:i]
            for e in events
            if (src, e) not in used_slots
        ]
        if not slots:
            break
        src, e = rng.choice(slots)
        used_slots.add((src, e))
        transitions.add((src, e, states[i]))
    for q in states:
        for e in events:
            if (q, e) not in used_slots and rng.random() < 0.3:
                used_slots.add((q, e))
                transitions.add((q, e, rng.choice(states)))
    g = Automaton(
        states=frozenset(states),
        alphabet=alphabet,
        transitions=frozenset(transitions),
        initial="q0",
    )
    entries = {
        tr: random_attack_automaton(rng, alphabet, acyclic_attacks)
        for tr in sorted(g.transitions)
        if tr[1] in sensor
    }
    return g, SensorAttackPolicy.from_transitions(entries)


def random_spec(rng: random.Random, g: Automaton) -> Automaton:
    safe = {g.initial} | {q for q in sorted(g.states) if rng.random() < 0.7}
    return sub_automaton(g, safe)


def random_strategy(rng: random.Random, g: Automaton) -> ObservationAttackStrategy | None:
    """A valid observation-based attack whose context is the plant's own
    projection observer (so language containment holds by construction)."""
    from descat import EPSILON, determinize, parallel_compose_pairs

    if not g.alphabet.sensor_attackable:
        return None
    erased = Automaton(
        states=g.states,
        alphabet=g.alphabet,
        transitions=frozenset(
            (s, l if l in g.alphabet.observable else EPSILON, d) for s, l, d in g.transitions
        ),
        initial=g.initial,
    )
    sa_full = determinize(erased)
    sa = Automaton(
        states=sa_full.states,
        alphabet=g.alphabet.observable_restriction(),
        transitions=sa_full.transitions,
        initial=sa_full.initial,
    )
    product, pairs = parallel_compose_pairs(g, sa)
    omega = {}
    for name, label, _ in sorted(product.transitions):
        if label in g.alphabet.sensor_attackable:
            z = pairs[name][1]
            if (z, label) not in omega:
                omega[(z, label)] = random_attack_automaton(rng, g.alphabet, acyclic=True)
    return ObservationAttackStrategy(sa=sa, omega=omega)


def random_supervisor(rng: random.Random, g: Automaton, h: Automaton, policy: SensorAttackPolicy) -> Supervisor:
    """An arbitrary estimate-based supervisor (not necessarily a valid solution)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sup = synthesize_ca_supervisor(g, h, policy)
    uncontrollable = g.alphabet.uncontrollable
    controllable = sorted(g.alphabet.controllable)
    for state in sorted(sup.controls):
        if rng.random() < 0.5:
            control = frozenset(uncontrollable) | {
                e for e in controllable if rng.random() < 0.6
            }
            sup = sup.with_control(state, control)
    return sup
