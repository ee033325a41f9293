"""Sensor and actuator attack semantics.

A transition-based sensor attack maps each attackable plant transition to a
regular language of corrupted observations, given as a marked automaton.
An observation-based attack drives a finite attack-context automaton with
the observation stream and picks the corruption language per context state.
Actuator attacks add or remove attackable controllable events from an
issued control.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .automata import (
    EPSILON,
    Automaton,
    EventAlphabet,
    Transition,
    Word,
    _determinize,
    bounded_marked_language,
    breadth_first,
    marked_word_length_bound,
    parallel_compose_pairs,
    shortest_marked_length,
    sub_automaton,
)
from .automata import validate as validate_automaton
from .errors import InputError, PreconditionError


@dataclass(frozen=True, eq=True)
class LanguageSample:
    """A depth-bounded enumeration of a possibly infinite language.

    ``truncated`` is True when words beyond ``depth`` exist, i.e. the sample
    is a strict under-approximation.
    """

    strings: frozenset[Word]
    depth: int
    truncated: bool

    def __iter__(self):
        return iter(self.strings)

    def __contains__(self, word) -> bool:
        return tuple(word) in self.strings

    def __len__(self) -> int:
        return len(self.strings)


@dataclass(frozen=True)
class SensorAttackPolicy:
    """Map from attacked transitions to their corruption-language automata.

    Every transition of the plant labelled with a sensor-attackable event
    must be covered; :func:`validate_policy` checks this together with the
    well-formedness of the attack automata.

    ``entries`` is a read-only mapping over a private copy of the one
    given, so a policy never changes and can memoise what it has worked
    out about a plant (see :class:`_SetUp`): its validation, restriction,
    CA-observer and set-ups.  A copy or pickle starts with an empty memo.

    The copy keeps one object per distinct corruption automaton (compared
    by value), listed in ``automata``: entries given equal automata share
    the first of them, so whatever is worked out per corruption language
    can be keyed on the automaton's identity.
    """

    entries: Mapping[Transition, Automaton]
    automata: tuple[Automaton, ...] = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        distinct: dict[Automaton, Automaton] = {}
        entries = {tr: distinct.setdefault(f, f) for tr, f in self.entries.items()}
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "automata", tuple(distinct))

    def __reduce__(self):
        return SensorAttackPolicy, (dict(self.entries),)

    @classmethod
    def from_transitions(cls, entries: Mapping[Transition, Automaton]) -> "SensorAttackPolicy":
        return cls(entries=dict(entries))

    @classmethod
    def uniform(
        cls,
        g: Automaton,
        event_map: Mapping[str, Automaton],
        overrides: Mapping[Transition, Automaton] | None = None,
    ) -> "SensorAttackPolicy":
        """Expand per-event corruption languages to every matching transition.

        Explicit per-transition ``overrides`` win over the per-event entry.
        """
        entries: dict[Transition, Automaton] = {}
        for tr in sorted(g.transitions):
            if tr[1] in event_map:
                entries[tr] = event_map[tr[1]]
        if overrides:
            entries.update(overrides)
        return cls(entries=entries)

    @classmethod
    def empty(cls) -> "SensorAttackPolicy":
        return cls(entries={})

    def language_automaton(self, tr: Transition) -> Automaton | None:
        return self.entries.get(tr)

    def sorted_entries(self) -> list[tuple[Transition, Automaton]]:
        return sorted(self.entries.items(), key=lambda item: item[0])

    def restricted_to(self, a: Automaton) -> tuple["SensorAttackPolicy", tuple[Transition, ...]]:
        """Restriction to the transitions of ``a`` plus the dropped keys.

        The same restricted policy comes back on every call with an equal
        ``a``: the policy itself when nothing is dropped, else a new one.
        """
        key = ("restricted", a)
        if key not in self._memo:
            kept = {tr: f for tr, f in self.entries.items() if tr in a.transitions}
            dropped = tuple(sorted(tr for tr in self.entries if tr not in a.transitions))
            self._memo[key] = (SensorAttackPolicy(entries=kept), dropped) if dropped else None  # None: self
        return self._memo[key] or (self, ())


def _corruption_defects(
    f: Automaton, observable: frozenset[str], memo: dict
) -> tuple[tuple[str, ...], tuple[str, ...], bool]:
    """Structural problems, non-observable labels and emptiness of a corruption automaton.

    The labels come one per offending transition, in sorted transition
    order.  Policies reuse a few automata across many entries, so each
    distinct automaton is checked once per ``memo``.
    """
    if f not in memo:
        memo[f] = (
            tuple(validate_automaton(f)),
            tuple(label for _, label, _ in sorted(f.transitions) if label == EPSILON or label not in observable),
            shortest_marked_length(f) is None,
        )
    return memo[f]


def _corruption_problems(key: tuple[str, str], f: Automaton, observable: frozenset[str], memo: dict) -> list[str]:
    """:func:`validate_strategy`'s report on the corruption automaton at context pair ``key``."""
    structural, bad_labels, empty = _corruption_defects(f, observable, memo)
    where = f"corruption automaton for ({key[0]!r}, {key[1]!r})"
    problems = [f"{where}: {problem}" for problem in structural]
    problems.extend(f"{where}: label {label!r} is not observable" for label in bad_labels)
    if empty:
        problems.append(f"{where} has an empty language")
    return problems


def validate_policy(g: Automaton, policy: SensorAttackPolicy) -> list[str]:
    """Report every way ``policy`` fails to be a valid attack map for ``g``.

    The report is worked out once per plant and memoised on ``policy``;
    each call returns a fresh list.
    """
    key = ("problems", g)
    if key not in policy._memo:
        policy._memo[key] = tuple(_policy_problems(g, policy))
    return list(policy._memo[key])


def _policy_problems(g: Automaton, policy: SensorAttackPolicy) -> list[str]:
    """:func:`validate_policy`'s report, worked out afresh."""
    problems = []
    observable = g.alphabet.observable
    attackable = g.alphabet.sensor_attackable
    for tr in sorted(policy.entries):
        if tr not in g.transitions:
            problems.append(f"attacked transition {tr!r} does not exist in the plant")
        elif tr[1] not in attackable:
            problems.append(f"attacked transition {tr!r} is not labelled with a sensor-attackable event")
    for tr in sorted(g.transitions):
        if tr[1] in attackable and tr not in policy.entries:
            problems.append(f"transition {tr!r} carries attackable event {tr[1]!r} but has no attack language")
    memo: dict = {}
    for tr, f in policy.sorted_entries():
        structural, bad_labels, empty = _corruption_defects(f, observable, memo)
        for problem in structural:
            problems.append(f"attack automaton for {tr!r}: {problem}")
        for label in bad_labels:
            problems.append(
                f"attack automaton for {tr!r}: transition label {label!r} is not an observable event"
            )
        if empty:
            problems.append(f"attack automaton for {tr!r} has an empty corruption language")
    return problems


def ensure_valid_policy(g: Automaton, policy: SensorAttackPolicy) -> None:
    problems = validate_policy(g, policy)
    if problems:
        raise InputError("invalid sensor attack policy: " + "; ".join(problems))


def delta_control(control: Iterable[str], actuator_attackable: Iterable[str]) -> frozenset[frozenset[str]]:
    """All controls an actuator attacker can deliver for an issued control.

    The attacker may remove and add arbitrary subsets of the attackable
    events, which collapses to ``(control - attackable) | A`` over all
    subsets ``A`` of the attackable set; the result always has exactly
    ``2**|attackable|`` elements.
    """
    base = frozenset(control) - frozenset(actuator_attackable)
    attackable = sorted(frozenset(actuator_attackable))
    if len(attackable) > 16:
        raise InputError(f"refusing to expand 2**{len(attackable)} attacked controls")
    out = set()
    for r in range(len(attackable) + 1):
        for combo in itertools.combinations(attackable, r):
            out.add(base | frozenset(combo))
    return frozenset(out)


def actuator_attack_set(alphabet: EventAlphabet, given: Iterable[str] | None) -> frozenset[str]:
    """The events an actuator attacker may add or remove: ``given``, else the alphabet's actuator-attackable ones.

    Raises :class:`InputError` for the first event of ``given`` outside the alphabet.
    """
    if given is None:
        return alphabet.actuator_attackable
    given = tuple(given)
    unknown = [event for event in given if event not in alphabet.events]
    if unknown:
        raise InputError(f"unknown event {unknown[0]!r}")
    return frozenset(given)


def attacked_commands(supervisor, observation: Iterable[str], actuator_attackable: Iterable[str] | None = None) -> frozenset[frozenset[str]]:
    """Controls the plant may receive after the supervisor reacts to ``observation``.

    ``supervisor`` is anything with a ``control_for`` method and an
    ``alphabet`` attribute (see :class:`descat.synthesis.Supervisor`).
    """
    issued = supervisor.control_for(tuple(observation))
    return delta_control(issued, actuator_attack_set(supervisor.alphabet, actuator_attackable))


def _steps(g: Automaton, policy: SensorAttackPolicy, word: Word) -> list[Automaton | str]:
    """Per-step sources of the corruption of ``word``: the attack automaton of an attacked step, else the event."""
    if not g.is_deterministic:
        raise InputError("the plant must be deterministic")
    q, steps = g.initial, []
    for event in word:
        nxt = g.delta(q, event)
        if nxt is None:
            raise InputError(f"string {' '.join(word) or 'ε'!s} is not in the plant language")
        steps.append(policy.language_automaton((q, event, nxt)) or event)
        q = nxt
    return steps


def theta_automaton(word: Iterable[str], g: Automaton, policy: SensorAttackPolicy) -> Automaton:
    """Automaton whose marked language is the set of corrupted strings for ``word``.

    The corruption of a string is the concatenation of its per-step
    languages: the singleton of the event itself for unattacked steps and
    the attack language for attacked steps.
    """
    word = tuple(word)
    ensure_valid_policy(g, policy)
    states, transitions, initial, marked = _chain(_steps(g, policy, word))
    return Automaton(states=states, alphabet=g.alphabet, transitions=transitions, initial=initial, marked=marked)


def _chain(steps: Iterable[Automaton | str]) -> tuple[set[str], set[Transition], str, set[str]]:
    """States, transitions, initial state and marked states of the concatenation automaton of ``steps``.

    The steps are linked by silent moves.  Step ``k`` (from 1) is an
    automaton, copied in with its states named ``k/<state>``, or an event,
    which becomes the one edge ``k/in -> k/out``.  The chain starts at
    state ``0``, and its marked states are the last step's exits.
    """
    states = {"0"}
    transitions: set[Transition] = set()
    exits = {"0"}
    for k, step in enumerate(steps, start=1):
        if isinstance(step, Automaton):
            rename = {s: f"{k}/{s}" for s in step.states}
            transitions.update((rename[src], label, rename[dst]) for src, label, dst in step.transitions)
            entry, nxt = rename[step.initial], {rename[s] for s in step.marked}
            states.update(rename.values())
        else:
            entry, end = f"{k}/in", f"{k}/out"
            transitions.add((entry, step, end))
            states.update((entry, end))
            nxt = {end}
        transitions.update((e, EPSILON, entry) for e in exits)
        exits = nxt
    return states, transitions, "0", exits


def _sample(steps: list[Automaton | str], alphabet: EventAlphabet, depth: int | None) -> LanguageSample:
    """Marked words of the chain of ``steps`` up to ``depth``; all, if finitely many, when ``depth`` is None.

    The chain's parts go straight into the subset construction, and both
    the length bound and the words are read off that one deterministic
    automaton.
    """
    chain = _determinize(*_chain(steps), alphabet).automaton
    bound = marked_word_length_bound(chain)
    if depth is None:
        if bound is None:
            raise InputError("some attack language is infinite; pass an explicit depth to truncate the enumeration")
        depth = bound
    return LanguageSample(bounded_marked_language(chain, depth), depth, truncated=bound is None or bound > depth)


def phi_enumerate(
    word: Iterable[str], g: Automaton, policy: SensorAttackPolicy, depth: int | None = None
) -> LanguageSample:
    """Observations the supervisor may see for an occurred string.

    This is the natural projection of the corrupted-string set.  With
    ``depth=None`` the result is exact and an :class:`InputError` is raised
    when some attack language is infinite; otherwise observations longer
    than ``depth`` are dropped and the sample is flagged truncated.
    """
    word = tuple(word)
    ensure_valid_policy(g, policy)
    observable = g.alphabet.observable
    steps = [step for step in _steps(g, policy, word) if isinstance(step, Automaton) or step in observable]
    return _sample(steps, g.alphabet, depth)


@dataclass(frozen=True)
class ObservationAttackStrategy:
    """Observation-based sensor attack: a context automaton plus a corruption map.

    ``sa`` is a deterministic automaton over the observable events whose
    language must contain every projected plant string.
    :func:`validate_strategy` checks all three; "over the observable
    events" covers ``sa``'s declared alphabet as well as its labels, since
    composing the plant with ``sa`` would drop the plant's moves on a
    declared unobservable event.  ``omega`` maps a pair (context state,
    sensor-attackable event) to the corruption language emitted when that
    event is observed in that context; events outside the attackable set
    always pass through unchanged.

    ``omega`` is a read-only mapping over a private copy of the one given,
    so a strategy never changes and can memoise, as a policy does, what it
    has worked out about a plant: its validation, conversion and set-ups.
    A copy or pickle starts with an empty memo.
    """

    sa: Automaton
    omega: Mapping[tuple[str, str], Automaton]
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "omega", MappingProxyType(dict(self.omega)))

    def __reduce__(self):
        return ObservationAttackStrategy, (self.sa, dict(self.omega))

    def corruption(self, z: str, event: str) -> Automaton | None:
        return self.omega.get((z, event))


def check_projection_containment(g: Automaton, sa: Automaton) -> Word | None:
    """Exact check that every projected plant string is accepted by ``sa``.

    Returns None when the containment holds, otherwise the observation of
    a shortest plant string (counted in plant events, unobservable ones
    included) whose projection ``sa`` cannot follow.  That observation is
    not always the shortest one ``sa`` rejects.  ``sa``'s alphabet must
    declare no unobservable plant event (see :func:`validate_strategy`).
    """
    return _uncovered(g, sa, *parallel_compose_pairs(g, sa))


def _uncovered(g: Automaton, sa: Automaton, product: Automaton, pairs: dict[str, tuple[str, str]]) -> Word | None:
    """:func:`check_projection_containment` read off ``parallel_compose_pairs(g, sa)``.

    The pairs come in breadth-first order, so the first one with an
    observable plant move that ``sa`` cannot follow ends a shortest
    uncovered plant string; the product is searched again only to spell it.
    """
    observable = g.alphabet.observable
    for name, (q, z) in pairs.items():
        for event, _ in g.outgoing(q):
            if event in observable and not sa.successors(z, event):
                search = breadth_first(product.initial, product.outgoing)
                string = next(string for node, _, _, string in search if node == name)
                return tuple(e for e in string() if e in observable) + (event,)
    return None


def validate_strategy(g: Automaton, strategy: ObservationAttackStrategy) -> list[str]:
    """Report every defect of an observation-based attack strategy for ``g``."""
    return _strategy_problems(g, strategy)[0]


def _strategy_problems(
    g: Automaton, strategy: ObservationAttackStrategy
) -> tuple[list[str], ObservationConversion | None]:
    """:func:`validate_strategy`'s problems, with the conversion built along the way.

    The context is composed with the plant once per plant, to check
    coverage and the reachable context pairs, and both results are
    memoised on ``strategy``; the problems come back as a fresh list.  The
    conversion is ``None`` only when there are problems (the context
    automaton is not deterministic or does not cover the plant).
    """
    key = ("problems", g)
    if key not in strategy._memo:
        problems, conversion = _check_and_convert(g, strategy)
        strategy._memo[key] = (tuple(problems), conversion)
    problems, conversion = strategy._memo[key]
    return list(problems), conversion


def _check_and_convert(
    g: Automaton, strategy: ObservationAttackStrategy
) -> tuple[list[str], ObservationConversion | None]:
    """:func:`_strategy_problems`, worked out afresh."""
    problems = []
    conversion = None
    sa = strategy.sa
    observable = g.alphabet.observable
    problems.extend(f"attack-context automaton: {problem}" for problem in validate_automaton(sa))
    if not sa.is_deterministic:
        problems.append("the attack-context automaton must be deterministic")
    for _, label, _ in sorted(t for t in sa.transitions if t[1] not in observable):
        problems.append(f"attack-context transition label {label!r} is not an observable event")
    # The composition synchronizes on every declared event, so a declared
    # unobservable event would drop the plant's moves on it.
    for event in sorted(sa.alphabet.events & g.alphabet.unobservable):
        problems.append(f"the attack-context alphabet declares unobservable plant event {event!r}")
    witness = None
    if sa.is_deterministic:
        product, pairs = parallel_compose_pairs(g, sa)
        witness = _uncovered(g, sa, product, pairs)
        if witness is not None:
            problems.append(
                "the attack-context automaton does not cover the projected plant language; "
                f"witness observation: {' '.join(witness) or 'ε'}"
            )
    attackable = g.alphabet.sensor_attackable
    memo: dict = {}
    for (z, event), f in sorted(strategy.omega.items(), key=lambda kv: kv[0]):
        if z not in sa.states:
            problems.append(f"corruption entry for unknown context state {z!r}")
        if event not in attackable:
            problems.append(f"corruption entry for non-attackable event {event!r}")
        problems.extend(_corruption_problems((z, event), f, observable, memo))
    # Every reachable attacked (context, event) pair needs a corruption
    # language; the same pass keys the converted policy.
    if sa.is_deterministic and witness is None:
        entries: dict[Transition, Automaton] = {}
        missing: dict[tuple[str, str], None] = {}
        for tr in sorted(product.transitions):
            if tr[1] in attackable:
                key = (pairs[tr[0]][1], tr[1])
                if key in strategy.omega:
                    entries[tr] = strategy.omega[key]
                else:
                    missing[key] = None
        problems.extend(f"no corruption language for reachable context pair {key!r}" for key in missing)
        policy = SensorAttackPolicy(entries=entries)
        conversion = ObservationConversion(product=product, policy=policy, pairs=pairs)
    return problems, conversion


def phi_omega(
    observation: Iterable[str],
    strategy: ObservationAttackStrategy,
    alphabet: EventAlphabet,
    depth: int | None = None,
) -> LanguageSample:
    """Corrupted observations for a true observation under an observation-based attack.

    Follows the recursion: the empty observation maps to itself, and each
    observed event contributes the corruption language chosen at the
    current context state (the event itself when it is not attackable).
    ``depth`` works as in :func:`phi_enumerate`.  A corruption automaton
    used on the way that :func:`validate_strategy` would reject raises
    :class:`InputError` with the same problems.
    """
    observation = tuple(observation)
    sa = strategy.sa
    attackable = alphabet.sensor_attackable
    steps: list[Automaton | str] = []
    used: dict[tuple[str, str], Automaton] = {}
    z = sa.initial
    for event in observation:
        if event not in alphabet.observable:
            raise InputError(f"observation contains non-observable event {event!r}")
        if event in attackable:
            f = strategy.corruption(z, event)
            if f is None:
                raise InputError(f"no corruption language for context pair ({z!r}, {event!r})")
            used[(z, event)] = f
            steps.append(f)
        else:
            steps.append(event)
        z2 = sa.delta(z, event)
        if z2 is None:
            raise InputError(
                f"observation {' '.join(observation)} leaves the attack-context automaton at {z!r}"
            )
        z = z2
    memo: dict = {}
    problems = [p for key, f in used.items() for p in _corruption_problems(key, f, alphabet.observable, memo)]
    if problems:
        raise InputError("invalid observation attack strategy: " + "; ".join(problems))
    return _sample(steps, alphabet, depth)


@dataclass(frozen=True)
class ObservationConversion:
    """Result of rewriting an observation-based attack as a transition-based one.

    ``product`` is the plant composed with the attack-context automaton
    (same language as the plant), ``policy`` the induced transition-based
    policy on it, and ``pairs`` the decomposition of product state names
    into (plant state, context state), a read-only mapping in the
    composition's breadth-first order.  A strategy memoises its conversion
    (see :class:`ObservationAttackStrategy`), so nothing in it can change.
    """

    product: Automaton
    policy: SensorAttackPolicy
    pairs: Mapping[str, tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", MappingProxyType(dict(self.pairs)))

    def __reduce__(self):
        return ObservationConversion, (self.product, self.policy, dict(self.pairs))


def convert_observation_based(g: Automaton, strategy: ObservationAttackStrategy) -> ObservationConversion:
    """Rewrite an observation-based sensor attack as a transition-based policy.

    Composes the plant with the attack context, then keys each attackable
    transition of the product on the corruption language chosen at its
    source context state.  Raises :class:`PreconditionError` listing every
    :func:`validate_strategy` problem (with a witness when the context
    automaton does not cover the projected plant language).
    """
    problems, conversion = _strategy_problems(g, strategy)
    if problems:
        raise PreconditionError("invalid observation attack strategy: " + "; ".join(problems))
    return conversion


def transition_based_setup(
    g: Automaton,
    h: Automaton | None,
    attack: SensorAttackPolicy | ObservationAttackStrategy,
) -> tuple[Automaton, Automaton | None, SensorAttackPolicy]:
    """Plant, spec and valid transition-based policy through which ``attack`` acts.

    A transition-based policy passes through unchanged once
    :func:`ensure_valid_policy` accepts it for ``g``.  An
    observation-based strategy is rewritten by
    :func:`convert_observation_based` (valid by construction): the plant
    becomes its composition with the attack context, and the spec keeps
    the composed states whose plant state is in ``h``.  A missing spec
    (``None``) stays missing.

    The set-up is memoised on the attack (:class:`_SetUp`): a repeat call
    returns the same automata and policy, and an invalid attack raises
    the same error again.

    This is the one validity rule of the library: an attack is valid for
    a plant as a whole, and only then restricted to a spec.  The checks,
    synthesis, verification and simulation all validate it on the plant.
    """
    setup = _setup(g, h, attack)
    return setup.plant, setup.spec, setup.policy


class _SetUp:
    """One (attack, plant, spec) set-up and everything the procedures have built on it.

    ``plant``, ``spec`` and ``policy`` are what :func:`transition_based_setup`
    returns; the other slots are filled on first use and read by later calls:

    - ``edges``, ``sources``, ``kinds``: the plant's move table
      (``verification._ObserverStepRelation``), shared by its set-ups.
    - ``spec_edges``: the spec's moves among the plant's, per state.
    - ``check``: the observability check's step memos and disabled sets,
      None until the first check.
    - ``runs``: ``simulation._PreparedRun``'s tables, keyed by (passive,
      fragment cap, actuator set).

    The memo rule for every memo on an attack object: what it has worked
    out about a plant (validation, restriction, conversion, CA-observers,
    set-ups) is kept per plant and spec, compared by value, for the
    attack's life and only ever extended; callers must not change it.
    Nothing is locked, so one attack object serves one thread at a time.
    """

    __slots__ = ("plant", "spec", "policy", "edges", "sources", "kinds", "spec_edges", "check", "runs")

    def __init__(self, plant: Automaton, spec: Automaton | None, policy: SensorAttackPolicy, moves=None):
        self.plant, self.spec, self.policy = plant, spec, policy
        self.edges, self.sources, self.kinds = ({}, [], {}) if moves is None else (moves.edges, moves.sources, moves.kinds)
        self.spec_edges, self.check, self.runs = {}, None, {}


def _setup(g: Automaton, h: Automaton | None, attack: SensorAttackPolicy | ObservationAttackStrategy) -> _SetUp:
    """The set-up of ``attack`` on ``g`` and ``h``, memoised on the attack under ``("setup", g, h)``.

    A policy is validated on every call (the report is memoised), so an
    invalid attack of either kind raises on every call.
    """
    if not isinstance(attack, ObservationAttackStrategy):
        ensure_valid_policy(g, attack)
    return attack._memo.get(("setup", g, h)) or _new_setup(g, h, attack)


def _new_setup(g: Automaton, h: Automaton | None, attack: SensorAttackPolicy | ObservationAttackStrategy) -> _SetUp:
    """:func:`_setup`'s set-up, made and memoised; a spec's shares the move table of the spec-less one."""
    plant, spec, policy = g, h, attack
    if isinstance(attack, ObservationAttackStrategy):
        conversion = convert_observation_based(g, attack)
        plant, policy = conversion.product, conversion.policy
        if h is not None:
            spec = sub_automaton(plant, frozenset(name for name, (q, _) in conversion.pairs.items() if q in h.states))
    base = None if h is None else attack._memo.get(("setup", g, None)) or _new_setup(g, None, attack)
    return attack._memo.setdefault(("setup", g, h), _SetUp(plant, spec, policy, moves=base))
