"""State-estimate-based supervisor synthesis and supervisor combinators."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .attacks import ObservationAttackStrategy, SensorAttackPolicy, transition_based_setup
from .automata import Automaton, EventAlphabet, SubsetTable, _bits, ensure_plant_and_spec
from .errors import InputError, UnsupportedSupervisorError
from .estimation import CAObserver, _attacked_observer


@dataclass(frozen=True, init=False)
class Supervisor:
    """A control map realized as an observer plus per-observer-state controls.

    ``control_table[i]`` is the enabled-event set at observer state ``i``
    of ``observer.table``, and ``estimate_table[i]`` the plant estimate
    that state stands for (already projected onto plant states for
    observation-based synthesis).  Observations the observer cannot follow
    receive ``default_control``, the alphabet's uncontrollable events
    (derived, not stored).  Verification and simulation read the control
    table on ints; ``controls`` and ``estimates``, the same maps keyed by
    observer-state name, are built on first read.

    The constructor takes name-keyed ``controls`` and ``estimates``
    covering every observer state and numbers them into the tables;
    synthesis, :meth:`with_control` and :func:`supervisor_union` fill the
    tables directly, naming nothing.  Synthesis leaves ``estimate_table``
    to be built on first read, from the observer table and the plant
    state of each table bit; equality and ``repr`` read it like any other
    field.

    A supervisor is unhashable, as its observer is, and
    ``dataclasses.replace`` is unsupported, because the constructor takes
    the name-keyed maps rather than the fields.
    """

    observer: CAObserver
    control_table: tuple[frozenset[str], ...]
    estimate_table: tuple[frozenset[str], ...]  # a field whose value is the cached property below
    alphabet: EventAlphabet
    __hash__ = None

    def __init__(self, observer: CAObserver, controls: Mapping, estimates: Mapping, alphabet: EventAlphabet):
        table = observer.table
        self._fill(observer, _numbered(table, controls), alphabet, estimate_table=tuple(_numbered(table, estimates)))

    @classmethod
    def _on_table(cls, observer: CAObserver, control_table, alphabet: EventAlphabet, **estimates) -> "Supervisor":
        sup = cls.__new__(cls)
        sup._fill(observer, control_table, alphabet, **estimates)
        return sup

    def _fill(self, observer, control_table, alphabet, **estimates) -> None:
        """Set the fields, and ``estimate_table`` or ``_plant_of`` (to build it on first read) from ``estimates``.

        ``_plant_of[b]`` is the plant state of the observer table's bit
        ``b``, for every bit of its marked mask.  A control object shared
        by several states is checked once, at the first of them.
        """
        checked = set()
        for i, control in enumerate(control_table):
            if id(control) not in checked:
                if not alphabet.uncontrollable <= control:
                    name = observer.table.names[i]
                    raise InputError(f"control for observer state {name!r} drops uncontrollable events")
                checked.add(id(control))
        # Frozen: the fields are set once, here.
        self.__dict__.update(observer=observer, control_table=tuple(control_table), alphabet=alphabet, **estimates)

    @cached_property
    def estimate_table(self) -> tuple[frozenset[str], ...]:
        """The estimate of every observer state, in table order; states with one estimate mask share one set."""
        keys = [mask & self.observer.table.marked for mask in self.observer.table.masks]
        built = {key: frozenset([self._plant_of[b] for b in _bits(key)]) for key in set(keys)}
        return tuple(map(built.__getitem__, keys))

    @cached_property
    def controls(self) -> dict[str, frozenset[str]]:
        """The control of every observer state, by name; built on first read."""
        return dict(zip(self.observer.table.names, self.control_table))

    @cached_property
    def estimates(self) -> dict[str, frozenset[str]]:
        """The estimate of every observer state, by name; built on first read."""
        return dict(zip(self.observer.table.names, self.estimate_table))

    @property
    def default_control(self) -> frozenset[str]:
        """The control for observations the observer cannot follow: the uncontrollable events."""
        return self.alphabet.uncontrollable

    def observer_state_for(self, observation: Iterable[str]) -> str | None:
        return self.observer.state_for(tuple(observation))

    def control_at(self, state: str | None) -> frozenset[str]:
        """Enabled events at an observer state; the default for ``None`` (outside the observer)."""
        if state is None:
            return self.default_control
        return self.control_table[self.observer.table.number(state)]

    def control_for(self, observation: Iterable[str]) -> frozenset[str]:
        """Enabled events after an observation; the default outside the observer."""
        i = self.observer.table.step(0, tuple(observation))
        return self.default_control if i is None else self.control_table[i]

    def estimate_for(self, observation: Iterable[str]) -> frozenset[str]:
        i = self.observer.table.step(0, tuple(observation))
        return frozenset() if i is None else self.estimate_table[i]

    def with_control(self, state: str, control: Iterable[str]) -> "Supervisor":
        """Copy of this supervisor with one observer state's control replaced."""
        controls = list(self.control_table)
        controls[self.observer.table.number(state)] = frozenset(control)
        return Supervisor._on_table(self.observer, controls, self.alphabet, estimate_table=self.estimate_table)


def _numbered(table: SubsetTable, by_name: Mapping[str, Iterable[str]]) -> list[frozenset[str]]:
    """The sets in ``by_name`` in table order; ``by_name`` must key exactly the observer states."""
    if by_name.keys() != table.index.keys():
        raise InputError("controls and estimates must be given for exactly the observer states")
    return [frozenset(by_name[name]) for name in table.names]


def ensure_estimate_based(supervisor) -> None:
    """Raise :class:`UnsupportedSupervisorError` unless ``supervisor`` works like a :class:`Supervisor`.

    Verification and simulation step the observer's table and read the
    per-state control table directly, so a bare ``control_for`` is not
    enough.
    """
    for attr in ("observer", "control_table", "default_control"):
        if not hasattr(supervisor, attr):
            raise UnsupportedSupervisorError(
                "this operation needs an estimate-based supervisor (observer plus per-state controls)"
            )


def disabled_set(estimate: Iterable[str], g: Automaton, safe_states: Iterable[str]) -> frozenset[str]:
    """Events that can take some estimated state out of the safe set."""
    safe = frozenset(safe_states)
    out = set()
    for q in estimate:
        for event, dst in g.outgoing(q):
            if dst not in safe:
                out.add(event)
    return frozenset(out)


def synthesize_ca_supervisor(
    g: Automaton, h: Automaton, attack: SensorAttackPolicy | ObservationAttackStrategy
) -> Supervisor:
    """Maximally-permissive estimate-based supervisor for a safety sub-automaton.

    Builds the observer on the spec automaton ``h`` (closed-loop states
    stay inside it), then enables everything except the events that could
    leave the safe states from the current estimate.  Observations outside
    the feasible set get the uncontrollable events only.

    ``attack`` is a transition-based policy or an observation-based
    strategy (see :func:`~descat.estimation.attacked_observer`); under a
    strategy the observer is built on the spec composed with the attack
    context and every estimate is lifted back to plant states.  The attack
    is validated whole on the plant ``g``, as verification validates it
    (see :func:`~descat.attacks.transition_based_setup`).  Policy entries
    on transitions outside ``h`` cannot occur in the closed loop; they are
    dropped with a warning.

    The observer is walked on ints and nothing is named.  Each event has
    a mask of the observer table's plant bits whose state has that event
    leaving the safe states; observer states with one estimate mask share
    one control, whose disabled events are those whose masks meet it, and
    states that disable the same events share one control object.  The
    estimates are built on first read (see :class:`Supervisor`).
    """
    ensure_plant_and_spec(g, h)
    transition_based_setup(g, None, attack)
    if isinstance(attack, SensorAttackPolicy):
        dropped = attack.restricted_to(h)[1]
        if dropped:
            warnings.warn(
                f"attack policy entries for transitions outside the specification were ignored: {list(dropped)}",
                stacklevel=2,
            )
    obs, pairs = _attacked_observer(h, attack)
    names, marked = obs.table.bit_names, obs.table.marked
    plant_of = names if pairs is None else [pairs[name][0] if name in pairs else None for name in names]
    leaving: dict[str, int] = {}  # event -> plant bits whose state it takes out of the safe states
    for b in _bits(marked):
        for event, dst in g.outgoing(plant_of[b]):
            if dst not in h.states:
                leaving[event] = leaving.get(event, 0) | 1 << b
    keys = [mask & marked for mask in obs.table.masks]
    sigma, uncontrollable = g.alphabet.events, g.alphabet.uncontrollable
    control_of, shared = {0: uncontrollable}, {}  # estimate mask -> control; disabled events -> control
    for key in set(keys) - {0}:
        disabled = frozenset([event for event, bits in leaving.items() if key & bits])
        control_of[key] = shared.setdefault(disabled, (sigma - disabled) | uncontrollable)
    return Supervisor._on_table(obs, list(map(control_of.__getitem__, keys)), g.alphabet, _plant_of=plant_of)


def synthesize_obs_based(g: Automaton, h: Automaton, strategy: ObservationAttackStrategy) -> Supervisor:
    """Estimate-based supervisor against an observation-based sensor attack.

    The same as :func:`synthesize_ca_supervisor` with the strategy as its
    attack: the spec is composed with the attack context, the attack is
    rewritten as a transition-based policy there, and every estimate is
    lifted back to plant states before the controls are derived.
    """
    return synthesize_ca_supervisor(g, h, strategy)


def _require_same_observer(s1: Supervisor, s2: Supervisor) -> None:
    """Both supervisors' observers must be equal tables (numbering, masks and rows), over one alphabet."""
    if s1.observer != s2.observer or s1.alphabet != s2.alphabet:
        raise InputError("supervisors must be realized on the same observer")


def supervisor_union(s1: Supervisor, s2: Supervisor) -> Supervisor:
    """Pointwise union of two supervisors over the same observer."""
    _require_same_observer(s1, s2)
    controls = [c1 | c2 for c1, c2 in zip(s1.control_table, s2.control_table)]
    return Supervisor._on_table(s1.observer, controls, s1.alphabet, estimate_table=s1.estimate_table)


def compare_permissiveness(s1: Supervisor, s2: Supervisor) -> str:
    """Pointwise permissiveness ordering over all observer states.

    Every state of the shared observer counts, including those with an
    empty estimate: mid-fragment or infeasible states whose controls the
    closed loop never consults.  A supervisor that enables one more event
    at such a state is therefore ``strictly-greater``.

    Returns one of ``equal``, ``strictly-less``, ``strictly-greater`` or
    ``incomparable``.  (A non-strict relation that is not equality is
    strict at some state, so no other outcome exists.)
    """
    _require_same_observer(s1, s2)
    pairs = list(zip(s1.control_table, s2.control_table))
    all_le = all(c1 <= c2 for c1, c2 in pairs)
    all_ge = all(c1 >= c2 for c1, c2 in pairs)
    if all_le and all_ge:
        return "equal"
    if all_le:
        return "strictly-less"
    if all_ge:
        return "strictly-greater"
    return "incomparable"
