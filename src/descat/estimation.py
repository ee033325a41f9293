"""Attack-aware state estimation.

The construction: substitute every attacked plant transition by its
corruption automaton (linked in with silent moves), erase the remaining
unobservable labels, and determinize.  The resulting observer maps each
feasible attacked observation to the exact set of plant states the system
may currently be in.

There is one observer per (automaton, policy), memoised on the policy
and walked on demand (:func:`_observer_walk`), so the observability
check, synthesis and the builders here share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .attacks import ObservationAttackStrategy, SensorAttackPolicy, convert_observation_based, ensure_valid_policy
from .automata import (
    EPSILON,
    Automaton,
    Transition,
    _bits,
    _subset_moves,
    _SubsetWalk,
)
from .errors import InputError


@dataclass(frozen=True)
class DiamondAutomaton:
    """Plant with attacked transitions replaced by their corruption automata.

    The marked states are exactly the original plant states, so the marked
    language is the full set of corrupted strings the attacker can produce.
    ``provenance`` maps every injected state back to the replaced
    transition and the corruption-automaton state it copies.
    """

    automaton: Automaton
    original_states: frozenset[str]
    injected_states: frozenset[str]
    provenance: Mapping[str, tuple[Transition, str]]

    def __post_init__(self):
        object.__setattr__(self, "provenance", dict(self.provenance))


def _splice(
    taken: frozenset[str], transitions: set[Transition], tr: Transition, f: Automaton, prefix: str
) -> dict[str, str]:
    """Swap ``tr`` in ``transitions`` for a copy of ``f``, as :func:`replace_transition` describes.

    Returns the map from ``f``'s states to their copies; raises
    :class:`InputError` when a copy's name is already in ``taken``.
    """
    rename = {s: f"{prefix}/{s}" for s in f.states}
    clash = set(rename.values()) & taken
    if clash:
        raise InputError(f"injected state names {sorted(clash)} collide with existing states")
    src, _, dst = tr
    transitions.remove(tr)
    for fsrc, label, fdst in f.transitions:
        transitions.add((rename[fsrc], label, rename[fdst]))
    transitions.add((src, EPSILON, rename[f.initial]))
    for m in f.marked:
        transitions.add((rename[m], EPSILON, dst))
    return rename


def replace_transition(a: Automaton, tr: Transition, f: Automaton, prefix: str | None = None) -> Automaton:
    """Replace one transition by an automaton accepting its corruption language.

    The transition is removed; a fresh copy of ``f`` (states renamed
    ``prefix/state``) is added with a silent move from the transition's
    source into the copy's initial state and silent moves from its marked
    states to the transition's target.  The marked set of ``a`` is kept
    as is; ``f``'s markings only shape the silent exits.
    """
    tr = tuple(tr)
    if tr not in a.transitions:
        raise InputError(f"transition {tr!r} does not exist")
    if prefix is None:
        prefix = f"{tr[0]}.{tr[1]}.{tr[2]}"
    transitions = set(a.transitions)
    rename = _splice(a.states, transitions, tr, f, prefix)
    return Automaton(
        states=a.states | frozenset(rename.values()),
        alphabet=a.alphabet,
        transitions=frozenset(transitions),
        initial=a.initial,
        marked=a.marked,
    )


def _substitute(
    g: Automaton, policy: SensorAttackPolicy
) -> tuple[set[str], set[Transition], dict[str, tuple[Transition, str]]]:
    """States, transitions and provenance of :func:`build_g_diamond`'s automaton, unbuilt; ``policy`` must be valid."""
    states = set(g.states)
    transitions = set(g.transitions)
    provenance: dict[str, tuple[Transition, str]] = {}
    for i, (tr, f) in enumerate(policy.sorted_entries()):
        rename = _splice(g.states, transitions, tr, f, f"tr{i}")
        states.update(rename.values())
        for s, name in rename.items():
            provenance[name] = (tr, s)
    return states, transitions, provenance


def build_g_diamond(g: Automaton, policy: SensorAttackPolicy) -> DiamondAutomaton:
    """Substitute every attacked transition of ``g`` by its corruption automaton.

    Equivalent to applying :func:`replace_transition` to each policy entry
    in turn, but the automaton is built once rather than once per entry.
    Injected states are named ``tr<i>/<state>`` where ``i`` indexes the
    policy entries in sorted transition order, which keeps derived
    constructions byte-stable across runs.  Names of different entries
    cannot meet (their prefixes differ), so only clashes with plant states
    are possible; the first entry in sorted order that has one raises
    :class:`InputError`.  The marked set of the result is the full
    original state set.
    """
    ensure_valid_policy(g, policy)
    states, transitions, provenance = _substitute(g, policy)
    diamond = Automaton(
        states=frozenset(states),
        alphabet=g.alphabet,
        transitions=frozenset(transitions),
        initial=g.initial,
        marked=g.states,
    )
    return DiamondAutomaton(
        automaton=diamond,
        original_states=g.states,
        injected_states=diamond.states - g.states,
        provenance=provenance,
    )


def erase_unobservable(d: DiamondAutomaton) -> DiamondAutomaton:
    """Turn every unobservable label into a silent move, keeping the structure."""
    observable = d.automaton.alphabet.observable
    relabelled = frozenset(
        (src, label if label == EPSILON or label in observable else EPSILON, dst)
        for src, label, dst in d.automaton.transitions
    )
    return DiamondAutomaton(
        automaton=Automaton(
            states=d.automaton.states,
            alphabet=d.automaton.alphabet,
            transitions=relabelled,
            initial=d.automaton.initial,
            marked=d.automaton.marked,
        ),
        original_states=d.original_states,
        injected_states=d.injected_states,
        provenance=d.provenance,
    )


@dataclass(frozen=True)
class CAObserver:
    """Deterministic observer for state estimation under sensor attacks.

    It holds the subset construction of the substituted-and-erased plant
    as a :class:`~descat.automata.SubsetTable`: observer state ``i`` is the
    subset ``table.masks[i]`` with move row ``table.rows[i]``, and the
    table's marked mask is the plant's original states, whose intersection
    with an observer state is the estimate it stands for.  A state is
    marked iff that intersection is nonempty.

    Synthesis, verification and simulation step the table on ints.  Names
    are built on first read, once per observer: ``observer`` (the
    :class:`Automaton`, states named by canonical encodings of their
    subsets), ``members`` (each subset by name) and the state names that
    :meth:`state_for` and :meth:`advance` return.
    """

    table: SubsetTable
    __hash__ = None  # like its table

    @property
    def observer(self) -> Automaton:
        """The observer as an :class:`Automaton`, built on first read."""
        return self.table.automaton

    @property
    def members(self) -> dict[str, frozenset[str]]:
        """Each observer state's subset by name, in discovery order; built on first read."""
        return self.table.members

    @cached_property
    def plant_states(self) -> frozenset[str]:
        """The plant's original states."""
        return frozenset([self.table.bit_names[b] for b in _bits(self.table.marked)])

    def estimate(self, i: int) -> frozenset[str]:
        """Plant states inside observer state number ``i``."""
        table = self.table
        return frozenset([table.bit_names[b] for b in _bits(table.masks[i] & table.marked)])

    def plant_projection(self, state: str) -> frozenset[str]:
        """Plant states inside an observer state."""
        return self.estimate(self.table.number(state))

    def advance(self, state: str | None, events: Iterable[str]) -> str | None:
        """Observer state reached from ``state`` by ``events``, or None when infeasible.

        ``None`` (an infeasible observation so far) stays ``None``, so
        ``advance(state_for(u), v) == state_for(u + v)``.  The cost is
        linear in ``events`` alone, which lets a caller follow a growing
        observation one fragment at a time.  An unknown ``state`` raises
        :class:`InputError`.
        """
        if state is None:
            return None
        i = self.table.step(self.table.number(state), events)
        return None if i is None else self.table.names[i]

    def state_for(self, observation: Iterable[str]) -> str | None:
        """Observer state reached by an observation, or None when infeasible."""
        i = self.table.step(self.table.initial, observation)
        return None if i is None else self.table.names[i]


def build_ca_observer(g: Automaton, policy: SensorAttackPolicy) -> CAObserver:
    """Observer of the substituted-and-erased plant.

    Its marked language is exactly the set of observations the supervisor
    can receive, and the plant projection of the state reached by an
    observation is the state estimate for it.  Every call, and synthesis
    on the same automaton and policy, returns one shared observer
    (:func:`_observer_walk`).
    """
    ensure_valid_policy(g, policy)
    return _observer(g, policy)


def _observer(g: Automaton, policy: SensorAttackPolicy) -> CAObserver:
    """:func:`build_ca_observer` for a policy already known to be valid: the shared, completed :func:`_observer_walk`."""
    return _observer_walk(g, policy).observer


class _ObserverWalk(_SubsetWalk):
    """The CA-observer of one (automaton, policy) as a subset walk advanced on demand (see :func:`_observer_walk`)."""

    @cached_property
    def observer(self) -> CAObserver:
        """The whole walk as one :class:`CAObserver`, shared by every caller."""
        return CAObserver(self.table)

    def estimate(self, i: int) -> frozenset[str]:
        """Plant states in state ``i``'s subset, read before the walk is whole: :meth:`CAObserver.estimate`."""
        return frozenset([self.bit_names[b] for b in _bits(self.masks[i] & self.marked)])


def _observer_walk(g: Automaton, policy: SensorAttackPolicy) -> _ObserverWalk:
    """The CA-observer of ``g`` under ``policy``, one per automaton (compared by value), memoised on ``policy``.

    Its preamble substitutes the corruption automata, makes the
    unobservable labels silent, then numbers the states and closes their
    moves (:func:`~descat.automata._subset_moves`); the substituted
    automaton is not kept.  The walk then numbers observer states as a
    :class:`~descat.automata.SubsetTable` does, breadth-first with labels
    sorted, whoever reads first: the observability check reads rows on
    demand and so builds a breadth-first prefix, and :func:`_observer`
    completes it once for synthesis, :func:`build_ca_observer` and
    :func:`attacked_observer`.  A state number, and so a mask of them,
    means the same to every caller across calls (memo rules:
    :class:`~descat.attacks._SetUp`).  An error raised in the preamble
    (an injected state name clashing with a state of ``g``) is not
    memoised, so it is raised again on the next call.  ``policy`` must be
    valid.
    """
    key = ("observer", g)
    if key not in policy._memo:
        states, transitions, _ = _substitute(g, policy)
        observable = g.alphabet.observable
        erased = ((src, label if label in observable else EPSILON, dst) for src, label, dst in transitions)
        names, index, moves, start = _subset_moves(states, erased, g.initial)
        plant = sum(1 << index[q] for q in g.states)  # distinct bits: sum is OR
        policy._memo[key] = _ObserverWalk(names, moves, start, plant, g.alphabet)
    return policy._memo[key]


def attacked_observer(
    a: Automaton, attack: SensorAttackPolicy | ObservationAttackStrategy
) -> tuple[CAObserver, Callable[[frozenset[str]], frozenset[str]]]:
    """Observer of ``a`` under ``attack``, plus the lift of its estimates onto states of ``a``.

    A transition-based policy is restricted to the transitions of ``a``,
    and the restriction is validated on ``a``; the lift is the identity.
    An observation-based strategy is converted on ``a`` (see
    :func:`convert_observation_based`), the observer is built on the
    composition without validating the converted policy again (it is valid
    by construction), and the lift projects each estimate through the
    composition's pairs.  The observer is the one memoised on the
    (restricted or converted) policy, shared with synthesis on ``a``.
    """
    if not isinstance(attack, ObservationAttackStrategy):
        ensure_valid_policy(a, attack.restricted_to(a)[0])
    observer, pairs = _attacked_observer(a, attack)
    return observer, (frozenset if pairs is None else (lambda est: lift_estimate(est, pairs)))


def _attacked_observer(
    a: Automaton, attack: SensorAttackPolicy | ObservationAttackStrategy
) -> tuple[CAObserver, Mapping[str, tuple[str, str]] | None]:
    """:func:`attacked_observer` for an attack already validated on ``a`` or on a plant ``a`` is a sub-automaton of.

    Returns the observer and, for a strategy, the composition's pairs
    (None for a policy, whose estimates need no lift).
    """
    if isinstance(attack, ObservationAttackStrategy):
        conversion = convert_observation_based(a, attack)
        return _observer(conversion.product, conversion.policy), conversion.pairs
    return _observer(a, attack.restricted_to(a)[0]), None


def state_estimate(obs: CAObserver, observation: Iterable[str]) -> frozenset[str]:
    """Plant states consistent with an attacked observation.

    Observations the observer cannot follow, and observations that can
    only be strict prefixes of a feasible one, yield the empty estimate:
    the supervisor then withholds new decisions.  No observer state is
    named.
    """
    i = obs.table.step(obs.table.initial, tuple(observation))
    return frozenset() if i is None else obs.estimate(i)


def lift_estimate(estimate: Iterable[str], pairs: Mapping[str, tuple[str, str]]) -> frozenset[str]:
    """Project an estimate over product states onto its first components.

    Used with observers built on a plant composed with an attack-context
    automaton: the pair decomposition comes from the composition step.
    """
    out = set()
    for name in estimate:
        if name not in pairs:
            raise InputError(f"state {name!r} is not a product state")
        out.add(pairs[name][0])
    return frozenset(out)
