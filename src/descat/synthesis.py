"""State-estimate-based supervisor synthesis and supervisor combinators."""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .attacks import ObservationAttackStrategy, SensorAttackPolicy
from .automata import Automaton, EventAlphabet, ensure_plant_and_spec
from .errors import InputError, UnsupportedSupervisorError
from .estimation import CAObserver, attacked_observer


@dataclass(frozen=True)
class Supervisor:
    """A control map realized as an observer plus per-observer-state controls.

    ``controls`` assigns the enabled-event set for every observer state;
    observations the observer cannot follow receive ``default_control``,
    the alphabet's uncontrollable events (derived, not stored).
    ``estimates`` carries the plant estimate each observer state stands
    for (already projected onto plant states for observation-based
    synthesis).
    """

    observer: CAObserver
    controls: Mapping[str, frozenset[str]]
    estimates: Mapping[str, frozenset[str]]
    alphabet: EventAlphabet

    def __post_init__(self):
        object.__setattr__(self, "controls", dict(self.controls))
        object.__setattr__(self, "estimates", dict(self.estimates))
        for state, control in self.controls.items():
            if not self.alphabet.uncontrollable <= control:
                raise InputError(
                    f"control for observer state {state!r} drops uncontrollable events"
                )

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
        return self.controls[state]

    def control_for(self, observation: Iterable[str]) -> frozenset[str]:
        """Enabled events after an observation; the default outside the observer."""
        return self.control_at(self.observer_state_for(observation))

    def estimate_for(self, observation: Iterable[str]) -> frozenset[str]:
        state = self.observer_state_for(observation)
        if state is None:
            return frozenset()
        return self.estimates[state]

    def with_control(self, state: str, control: Iterable[str]) -> "Supervisor":
        """Copy of this supervisor with one observer state's control replaced."""
        if state not in self.controls:
            raise InputError(f"unknown observer state {state!r}")
        controls = dict(self.controls)
        controls[state] = frozenset(control)
        return dataclasses.replace(self, controls=controls)


def ensure_estimate_based(supervisor) -> None:
    """Raise :class:`UnsupportedSupervisorError` unless ``supervisor`` works like a :class:`Supervisor`.

    Verification and simulation read the observer and the per-state
    controls directly, so a bare ``control_for`` is not enough.
    """
    for attr in ("observer", "controls", "control_at", "default_control"):
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


def _controls_from_observer(
    obs: CAObserver,
    estimates: Mapping[str, frozenset[str]],
    g: Automaton,
    safe_states: frozenset[str],
) -> dict[str, frozenset[str]]:
    sigma = g.alphabet.events
    uncontrollable = g.alphabet.uncontrollable
    controls = {}
    for state in obs.observer.states:
        estimate = estimates[state]
        if estimate:
            controls[state] = (sigma - disabled_set(estimate, g, safe_states)) | uncontrollable
        else:
            controls[state] = uncontrollable
    return controls


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
    context and every estimate is lifted back to plant states.  Policy
    entries on transitions outside ``h`` cannot occur in the closed loop;
    they are dropped with a warning.
    """
    ensure_plant_and_spec(g, h)
    if isinstance(attack, SensorAttackPolicy):
        dropped = attack.restricted_to(h)[1]
        if dropped:
            warnings.warn(
                f"attack policy entries for transitions outside the specification were ignored: {list(dropped)}",
                stacklevel=2,
            )
    obs, lift = attacked_observer(h, attack)
    estimates = {state: lift(obs.plant_projection(state)) for state in obs.observer.states}
    controls = _controls_from_observer(obs, estimates, g, h.states)
    return Supervisor(
        observer=obs,
        controls=controls,
        estimates=estimates,
        alphabet=g.alphabet,
    )


def synthesize_obs_based(g: Automaton, h: Automaton, strategy: ObservationAttackStrategy) -> Supervisor:
    """Estimate-based supervisor against an observation-based sensor attack.

    The same as :func:`synthesize_ca_supervisor` with the strategy as its
    attack: the spec is composed with the attack context, the attack is
    rewritten as a transition-based policy there, and every estimate is
    lifted back to plant states before the controls are derived.
    """
    return synthesize_ca_supervisor(g, h, strategy)


def _require_same_observer(s1: Supervisor, s2: Supervisor) -> None:
    if s1.observer.observer != s2.observer.observer or s1.alphabet != s2.alphabet:
        raise InputError("supervisors must be realized on the same observer")


def supervisor_union(s1: Supervisor, s2: Supervisor) -> Supervisor:
    """Pointwise union of two supervisors over the same observer."""
    _require_same_observer(s1, s2)
    controls = {state: s1.controls[state] | s2.controls[state] for state in s1.controls}
    return dataclasses.replace(s1, controls=controls)


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
    all_le = all(s1.controls[x] <= s2.controls[x] for x in s1.controls)
    all_ge = all(s1.controls[x] >= s2.controls[x] for x in s1.controls)
    if all_le and all_ge:
        return "equal"
    if all_le:
        return "strictly-less"
    if all_ge:
        return "strictly-greater"
    return "incomparable"
