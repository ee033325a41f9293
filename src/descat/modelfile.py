"""The `.des` model document format: parsing, validation and serialization.

A document declares, in sections introduced by a header line ending with a
colon: the event alphabet with its attribute flags, the plant automaton,
the safety specification (a safe-state subset or an explicit sub-automaton),
and the attacks, either transition-based (``attack tr`` / ``attack event``
blocks with inline corruption automata) or observation-based (an ``sa``
context automaton plus ``omega`` blocks).  The full grammar lives in
``docs/model_format.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .attacks import ObservationAttackStrategy, SensorAttackPolicy, validate_policy, validate_strategy
from .automata import Automaton, EventAlphabet, Transition, ensure_deterministic, is_subautomaton, sub_automaton, validate
from .errors import InputError, ParseError

# Each alphabet flag, in the order flags are written, and the EventAlphabet attribute it sets.
_FLAGS = {
    flag: flag.replace("-", "_") for flag in ("controllable", "observable", "sensor-attackable", "actuator-attackable")
}
# Derived state names are built from these characters: state sets `{a,b}`,
# closed-loop states `q|{x}` and product pairs `(q,z)`.  A state name that
# contains them, other than such a pair, could spell another state's name.
_RESERVED = re.compile(r"[{}|(),]")
_PAIR_NAME = re.compile(r"\(([^{}|(),]+),([^{}|(),]+)\)")


def _check_state_names(tokens: list[tuple[str, int]], line: int) -> None:
    """Reject state names, given with their columns, that derived names could alias."""
    for name, column in tokens:
        if _RESERVED.search(name) and not _PAIR_NAME.fullmatch(name):
            raise ParseError(
                f"state name {name!r} contains a reserved character",
                line,
                column,
                expected="a name without { } | ( ) , other than a pair (NAME,NAME)",
            )


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model: alphabet, plant, spec and attack declarations.

    ``policy_events`` and ``policy_transitions`` keep the attack sections
    as declared (per-event sugar is expanded only when the resolved policy
    is requested), so serialization round-trips the author's structure.

    The three attack mappings are read-only views over private copies, so
    a document never changes.  That lets it build its policy and its
    strategy once each, on first request: every caller gets the same
    attack object, and with it that object's memo, from loading on.  A
    copy or pickle builds its own on first request.
    """

    alphabet: EventAlphabet
    plant: Automaton
    safe_states: frozenset[str] | None = None
    policy_events: Mapping[str, Automaton] = field(default_factory=dict)
    policy_transitions: Mapping[Transition, Automaton] = field(default_factory=dict)
    sa: Automaton | None = None
    omega: Mapping[tuple[str, str], Automaton] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("policy_events", "policy_transitions", "omega"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        mappings = dict(self.policy_events), dict(self.policy_transitions)
        return ModelDocument, (self.alphabet, self.plant, self.safe_states, *mappings, self.sa, dict(self.omega))

    @property
    def has_transition_policy(self) -> bool:
        return bool(self.policy_events or self.policy_transitions)

    @property
    def has_observation_strategy(self) -> bool:
        return self.sa is not None

    def spec_automaton(self) -> Automaton:
        if self.safe_states is None:
            raise InputError("the model has no spec section")
        return sub_automaton(self.plant, self.safe_states)

    def policy(self) -> SensorAttackPolicy:
        """Resolved transition-based policy (per-event entries expanded), the same object on every call."""
        if self.has_observation_strategy and not self.has_transition_policy:
            raise InputError("the model declares an observation-based attack, not a transition-based one")
        return self._policy

    def strategy(self) -> ObservationAttackStrategy:
        """The observation-based strategy, the same object on every call."""
        if self.sa is None:
            raise InputError("the model has no observation-based attack sections")
        return self._strategy

    @property
    def attack(self) -> SensorAttackPolicy | ObservationAttackStrategy:
        """The observation-based strategy if the document declares one, else its policy."""
        return self.strategy() if self.has_observation_strategy else self.policy()

    @cached_property
    def _policy(self) -> SensorAttackPolicy:
        return SensorAttackPolicy.uniform(self.plant, self.policy_events, overrides=self.policy_transitions)

    @cached_property
    def _strategy(self) -> ObservationAttackStrategy:
        return ObservationAttackStrategy(sa=self.sa, omega=self.omega)


class _AutomatonBuilder:
    """Accumulates one automaton section of a document."""

    def __init__(self, header_line: int, alphabet_hint: str):
        self.header_line = header_line
        self.alphabet_hint = alphabet_hint
        self.initial: str | None = None
        self.states: list[str] = []
        self.marked: list[str] = []
        self.transitions: list[Transition] = []

    def feed(self, tokens: list[str], line: int) -> None:
        keyword = tokens[0]
        if keyword == "initial":
            if len(tokens) != 2:
                raise ParseError("initial takes exactly one state", line, expected="initial <state>")
            if self.initial is not None:
                raise ParseError("duplicate initial declaration", line)
            self.initial = tokens[1]
        elif keyword == "states":
            self.states.extend(tokens[1:])
        elif keyword == "marked":
            self.marked.extend(tokens[1:])
        elif keyword == "transition":
            if len(tokens) != 4:
                raise ParseError(
                    "transition takes source, event and target", line, expected="transition <src> <event> <dst>"
                )
            self.transitions.append((tokens[1], tokens[2], tokens[3]))
        else:
            raise ParseError(f"unknown declaration {keyword!r}", line, expected="initial/states/marked/transition")

    def build(self, alphabet: EventAlphabet) -> Automaton:
        if self.initial is None:
            raise ParseError(f"missing initial state in the {self.alphabet_hint} section", self.header_line)
        states = set(self.states) | set(self.marked) | {self.initial}
        for src, _, dst in self.transitions:
            states.update((src, dst))
        if self.states and not states <= set(self.states):
            extra = sorted(states - set(self.states))
            raise ParseError(
                f"the {self.alphabet_hint} section uses states {extra} outside its declared state list",
                self.header_line,
            )
        return Automaton(
            states=frozenset(states),
            alphabet=alphabet,
            transitions=frozenset(self.transitions),
            initial=self.initial,
            marked=frozenset(self.marked),
        )


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens of a line with their 1-based starting columns."""
    tokens = []
    column = 1
    for piece in line.split():
        at = line.index(piece, column - 1) + 1
        tokens.append((piece, at))
        column = at + len(piece)
    return tokens


def parse_model(text: str) -> ModelDocument:
    """Parse a model document; raises :class:`ParseError` with positions."""
    alphabet_rows: list[tuple[str, list[str], int]] = []
    builders: dict[str, _AutomatonBuilder] = {}
    attack_tr: dict[Transition, _AutomatonBuilder] = {}
    attack_event: dict[str, _AutomatonBuilder] = {}
    omega: dict[tuple[str, str], _AutomatonBuilder] = {}
    safe_states: list[str] | None = None
    spec_builder: _AutomatonBuilder | None = None

    section: str | None = None
    current: _AutomatonBuilder | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokenize(line)
        words = [t for t, _ in tokens]
        if line.rstrip().endswith(":"):
            words[-1] = words[-1][:-1]
            if words[-1] == "":
                words.pop()
            if not words:
                raise ParseError("empty section header", lineno, tokens[0][1])
            head = words[0]
            if head == "alphabet":
                section, current = "alphabet", None
            elif head == "plant":
                builders["plant"] = _AutomatonBuilder(lineno, "plant")
                section, current = "automaton", builders["plant"]
            elif head == "spec":
                spec_builder = _AutomatonBuilder(lineno, "spec")
                section, current = "spec", spec_builder
            elif head == "sa":
                builders["sa"] = _AutomatonBuilder(lineno, "sa")
                section, current = "automaton", builders["sa"]
            elif head == "attack":
                if len(words) == 5 and words[1] == "tr":
                    _check_state_names([(words[2], tokens[2][1]), (words[4], tokens[4][1])], lineno)
                    tr = (words[2], words[3], words[4])
                    attack_tr[tr] = _AutomatonBuilder(lineno, f"attack tr {' '.join(tr)}")
                    section, current = "automaton", attack_tr[tr]
                elif len(words) == 3 and words[1] == "event":
                    attack_event[words[2]] = _AutomatonBuilder(lineno, f"attack event {words[2]}")
                    section, current = "automaton", attack_event[words[2]]
                else:
                    raise ParseError(
                        "malformed attack header", lineno, tokens[0][1],
                        expected="'attack tr <src> <event> <dst>:' or 'attack event <event>:'",
                    )
            elif head == "omega":
                if len(words) != 3:
                    raise ParseError(
                        "malformed omega header", lineno, tokens[0][1], expected="'omega <state> <event>:'"
                    )
                _check_state_names([(words[1], tokens[1][1])], lineno)
                omega[(words[1], words[2])] = _AutomatonBuilder(lineno, f"omega {words[1]} {words[2]}")
                section, current = "automaton", omega[(words[1], words[2])]
            else:
                raise ParseError(f"unknown section {head!r}", lineno, tokens[0][1])
            continue

        if section is None:
            raise ParseError("content before the first section header", lineno, tokens[0][1])
        if section == "alphabet":
            event, flags = words[0], words[1:]
            for flag, (_, col) in zip(flags, tokens[1:]):
                if flag not in _FLAGS:
                    raise ParseError(
                        f"unknown alphabet flag {flag!r}", lineno, col, expected="/".join(_FLAGS)
                    )
            alphabet_rows.append((event, flags, lineno))
        elif section == "spec":
            if words[0] == "safe-states":
                safe_states = (safe_states or []) + words[1:]
            else:
                current.feed(words, lineno)
        else:
            current.feed(words, lineno)
        if section != "alphabet" and _RESERVED.search(line):
            _check_state_names([tokens[1], tokens[3]] if words[0] == "transition" else tokens[1:], lineno)

    if not alphabet_rows:
        raise ParseError("missing alphabet", 1, expected="an 'alphabet:' section")
    events: set[str] = set()
    flagged: dict[str, set[str]] = {attribute: set() for attribute in _FLAGS.values()}
    for event, flags, lineno in alphabet_rows:
        if event in events:
            raise ParseError(f"event {event!r} declared twice", lineno)
        events.add(event)
        for flag in flags:
            flagged[_FLAGS[flag]].add(event)
    try:
        alphabet = EventAlphabet(events=events, **flagged)
    except InputError as exc:
        raise ParseError(str(exc), alphabet_rows[0][2]) from exc

    if "plant" not in builders:
        raise ParseError("missing plant section", 1, expected="a 'plant:' section")
    plant = builders["plant"].build(alphabet)

    safe: frozenset[str] | None = None
    if spec_builder is not None:
        if safe_states is not None and (spec_builder.initial or spec_builder.transitions):
            raise ParseError(
                "a spec section is either a safe-states list or an explicit sub-automaton, not both",
                spec_builder.header_line,
            )
        if safe_states is not None:
            safe = frozenset(safe_states)
        else:
            explicit = spec_builder.build(alphabet)
            if not is_subautomaton(explicit, plant):
                raise ParseError(
                    "the explicit spec automaton is not the plant restricted to its states",
                    spec_builder.header_line,
                )
            safe = explicit.states

    sa = builders["sa"].build(alphabet.observable_restriction()) if "sa" in builders else None
    doc = ModelDocument(
        alphabet=alphabet,
        plant=plant,
        safe_states=safe,
        policy_events={e: b.build(alphabet) for e, b in attack_event.items()},
        policy_transitions={tr: b.build(alphabet) for tr, b in attack_tr.items()},
        sa=sa,
        omega={k: b.build(alphabet.observable_restriction()) for k, b in omega.items()},
    )
    _validate_document(doc)
    return doc


def _validate_document(doc: ModelDocument) -> None:
    problems = validate(doc.plant)
    if problems:
        raise InputError("invalid plant: " + "; ".join(problems))
    ensure_deterministic(doc.plant)
    if doc.safe_states is not None:
        unknown = doc.safe_states - doc.plant.states
        if unknown:
            raise InputError(f"safe states {sorted(unknown)} are not plant states")
        if doc.plant.initial not in doc.safe_states:
            raise InputError("the initial state must be safe")
    if doc.has_transition_policy and doc.has_observation_strategy:
        raise InputError("a model cannot declare both transition-based and observation-based attacks")
    if doc.has_transition_policy:
        problems = validate_policy(doc.plant, doc.policy())
        if problems:
            raise InputError("invalid attack sections: " + "; ".join(problems))
    elif doc.has_observation_strategy:
        problems = validate_strategy(doc.plant, doc.strategy())
        if problems:
            raise InputError("invalid observation-based attack sections: " + "; ".join(problems))
    elif doc.alphabet.sensor_attackable:
        raise InputError(
            "sensor-attackable events are declared but no attack sections describe their corruption"
        )


def _emit_section(lines: list[str], header: str, a: Automaton) -> None:
    lines.extend(["", header, f"  initial {a.initial}", "  states " + " ".join(sorted(a.states))])
    if a.marked:
        lines.append("  marked " + " ".join(sorted(a.marked)))
    lines.extend(f"  transition {src} {label} {dst}" for src, label, dst in sorted(a.transitions))


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text of a model document.

    Sections and their rows are emitted in a fixed sorted order, so
    ``parse_model(serialize_model(doc)) == doc`` and serializing twice
    yields identical bytes.
    """
    lines: list[str] = ["alphabet:"]
    for event in sorted(doc.alphabet.events):
        flags = [flag for flag, attribute in _FLAGS.items() if event in getattr(doc.alphabet, attribute)]
        lines.append("  " + " ".join([event] + flags))
    _emit_section(lines, "plant:", doc.plant)
    if doc.safe_states is not None:
        lines.extend(["", "spec:", "  safe-states " + " ".join(sorted(doc.safe_states))])
    for event in sorted(doc.policy_events):
        _emit_section(lines, f"attack event {event}:", doc.policy_events[event])
    for tr in sorted(doc.policy_transitions):
        _emit_section(lines, f"attack tr {tr[0]} {tr[1]} {tr[2]}:", doc.policy_transitions[tr])
    if doc.sa is not None:
        _emit_section(lines, "sa:", doc.sa)
        for z, event in sorted(doc.omega):
            _emit_section(lines, f"omega {z} {event}:", doc.omega[(z, event)])
    return "\n".join(lines) + "\n"


def load_model(path: str) -> ModelDocument:
    """Read and parse a model document from a file.

    A file that is not UTF-8 text raises :class:`InputError` naming ``path``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path!r} is not UTF-8 text: {exc}") from None
    return parse_model(text)
