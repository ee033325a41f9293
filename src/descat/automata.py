"""Finite automata over event alphabets and the language algorithms built on them.

Automata here are plain immutable values: a state set, an event alphabet,
a transition relation (possibly nondeterministic, possibly containing
epsilon moves), one initial state and a set of marked states.  All
operations are pure functions; nothing in this module mutates its inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import ClassVar, Iterable

from .errors import InputError

#: Reserved label for silent moves.  Never a user event name.
EPSILON = "ε"

#: Spellings users might try for the silent label; all are rejected as events.
_RESERVED_EVENT_NAMES = {EPSILON, "eps", "epsilon"}

Transition = tuple[str, str, str]
Word = tuple[str, ...]
#: A subset construction's per-label moves: ``(label, has, targets)`` entries (see :func:`_subset_moves`).
_Moves = list[tuple[str, int, list[int]]]


@dataclass(frozen=True)
class EventAlphabet:
    """Event set with controllability, observability and attackability attributes.

    The uncontrollable and unobservable sets are derived, never stored:
    ``uncontrollable = events - controllable`` and likewise for observation.
    """

    events: frozenset[str]
    controllable: frozenset[str] = frozenset()
    observable: frozenset[str] = frozenset()
    sensor_attackable: frozenset[str] = frozenset()
    actuator_attackable: frozenset[str] = frozenset()

    def __post_init__(self):
        for name in ("events", "controllable", "observable", "sensor_attackable", "actuator_attackable"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        bad = self.events & _RESERVED_EVENT_NAMES
        if bad:
            raise InputError(f"event names {sorted(bad)} are reserved for the silent label")
        if not self.controllable <= self.events:
            raise InputError(f"controllable events {sorted(self.controllable - self.events)} not in the alphabet")
        if not self.observable <= self.events:
            raise InputError(f"observable events {sorted(self.observable - self.events)} not in the alphabet")
        if not self.sensor_attackable <= self.observable:
            raise InputError(
                f"sensor-attackable events {sorted(self.sensor_attackable - self.observable)} must be observable"
            )
        if not self.actuator_attackable <= self.controllable:
            raise InputError(
                f"actuator-attackable events {sorted(self.actuator_attackable - self.controllable)} must be controllable"
            )

    @property
    def uncontrollable(self) -> frozenset[str]:
        return self.events - self.controllable

    @property
    def unobservable(self) -> frozenset[str]:
        return self.events - self.observable

    def observable_restriction(self) -> "EventAlphabet":
        """Alphabet restricted to the observable events (used for attack-context automata)."""
        obs = self.observable
        return EventAlphabet(
            events=obs,
            controllable=self.controllable & obs,
            observable=obs,
            sensor_attackable=self.sensor_attackable,
            actuator_attackable=self.actuator_attackable & obs,
        )


def merge_alphabets(a: EventAlphabet, b: EventAlphabet) -> EventAlphabet:
    """Union of two alphabets, attribute-wise."""
    return EventAlphabet(
        events=a.events | b.events,
        controllable=a.controllable | b.controllable,
        observable=a.observable | b.observable,
        sensor_attackable=a.sensor_attackable | b.sensor_attackable,
        actuator_attackable=a.actuator_attackable | b.actuator_attackable,
    )


@dataclass(frozen=True)
class Automaton:
    """A finite automaton, deterministic or not, with optional epsilon moves.

    ``transitions`` is a set of ``(src, label, dst)`` triples where the label
    is an event of the alphabet or :data:`EPSILON`.  Construction never
    validates structural invariants so that :func:`validate` can report on
    malformed values; the language operations assume a valid automaton.
    """

    states: frozenset[str]
    alphabet: EventAlphabet
    transitions: frozenset[Transition]
    initial: str
    marked: frozenset[str] = frozenset()
    _succ: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _out: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _sub_of: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "transitions", frozenset(tuple(t) for t in self.transitions))
        object.__setattr__(self, "marked", frozenset(self.marked))
        succ: dict[tuple[str, str], set[str]] = {}
        out: dict[str, list[tuple[str, str]]] = {}
        for src, label, dst in sorted(self.transitions):
            succ.setdefault((src, label), set()).add(dst)
            out.setdefault(src, []).append((label, dst))
        object.__setattr__(self, "_succ", {k: frozenset(v) for k, v in succ.items()})
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in out.items()})

    def successors(self, state: str, label: str) -> frozenset[str]:
        """States reachable from ``state`` by one ``label`` transition."""
        return self._succ.get((state, label), frozenset())

    def outgoing(self, state: str) -> tuple[tuple[str, str], ...]:
        """All ``(label, dst)`` pairs leaving ``state``, in sorted order."""
        return self._out.get(state, ())

    def delta(self, state: str, event: str) -> str | None:
        """Deterministic step: the unique successor, or None when undefined.

        Raises :class:`InputError` if the automaton has several successors
        for ``(state, event)``.
        """
        nxt = self.successors(state, event)
        if len(nxt) > 1:
            raise InputError(f"delta({state!r}, {event!r}) is not deterministic: {sorted(nxt)}")
        return next(iter(nxt)) if nxt else None

    @cached_property
    def is_deterministic(self) -> bool:
        """True iff there are no epsilon moves and at most one successor per (state, event).

        Worked out on first use and kept on the automaton, which never changes.
        """
        return all(label != EPSILON and len(dsts) <= 1 for (_, label), dsts in self._succ.items())


def validate(a: Automaton) -> list[str]:
    """Report every violated structural invariant of ``a``.

    Returns an empty list iff the automaton is well formed.  Each entry
    names the offending state or transition.
    """
    problems = []
    if a.initial not in a.states:
        problems.append(f"initial state {a.initial!r} is not a state")
    for s in sorted(a.marked - a.states):
        problems.append(f"marked state {s!r} is not a state")
    # Sorting only the faulty transitions keeps the report order and spares
    # a well-formed automaton the sort.
    states, events = a.states, a.alphabet.events
    faulty = (
        t for t in a.transitions if t[0] not in states or t[2] not in states or (t[1] not in events and t[1] != EPSILON)
    )
    for src, label, dst in sorted(faulty):
        if src not in states:
            problems.append(f"transition ({src!r}, {label!r}, {dst!r}) leaves unknown state {src!r}")
        if dst not in states:
            problems.append(f"transition ({src!r}, {label!r}, {dst!r}) enters unknown state {dst!r}")
        if label != EPSILON and label not in events:
            problems.append(f"transition ({src!r}, {label!r}, {dst!r}) uses undeclared event {label!r}")
    return problems


def ensure_deterministic(a: Automaton, what: str = "plant") -> None:
    """Raise :class:`InputError` when ``a`` is not deterministic."""
    if not a.is_deterministic:
        raise InputError(f"the {what} must be deterministic")


def ensure_plant_and_spec(g: Automaton, h: Automaton) -> None:
    """Raise :class:`InputError` unless ``g`` is deterministic and ``h`` a sub-automaton of it.

    The :func:`is_subautomaton` answer is kept on ``h``, keyed by ``g``
    (compared by value), so the checks and synthesis on one pair work it
    out once.
    """
    ensure_deterministic(g)
    if g not in h._sub_of:
        h._sub_of[g] = is_subautomaton(h, g)
    if not h._sub_of[g]:
        raise InputError("the specification must be a sub-automaton of the plant")


def unobservable_reach(a: Automaton, states: Iterable[str]) -> frozenset[str]:
    """Smallest superset of ``states`` closed under epsilon transitions."""
    reach = set(states)
    stack = list(reach)
    while stack:
        q = stack.pop()
        for nxt in a.successors(q, EPSILON):
            if nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    return frozenset(reach)


def _step(a: Automaton, states: frozenset[str], label: str) -> frozenset[str]:
    """One labelled move from a closed state set, followed by epsilon closure."""
    hit = set()
    for q in states:
        hit |= a.successors(q, label)
    if not hit:
        return frozenset()
    return unobservable_reach(a, hit)


def breadth_first(start, expand, last: int | None = None):
    """Breadth-first search of the graph that ``expand`` spans from ``start``.

    ``expand(node)`` lists ``(label, successor)`` pairs in the order the
    caller wants ties broken (sorted by label, say), so nodes come out
    ordered by the least label string reaching them under that order.
    Yields ``(node, level, successors, string)``; ``string()`` rebuilds
    that least string from parent pointers.  Nodes at level ``last`` are
    yielded unexpanded, with no successors, so none lies deeper.
    """
    parents = {start: None}
    queue = deque([(start, 0)])
    while queue:
        node, level = queue.popleft()
        successors = () if level == last else expand(node)
        for label, succ in successors:
            if succ not in parents:
                parents[succ] = (node, label)
                queue.append((succ, level + 1))
        yield node, level, successors, partial(_string_to, parents, node)


def _string_to(parents, node) -> tuple:
    out = []
    while parents[node] is not None:
        node, label = parents[node]
        out.append(label)
    return tuple(reversed(out))


def accessible(a: Automaton) -> Automaton:
    """Restriction of ``a`` to the states reachable from its initial state."""
    reachable = frozenset(node for node, *_ in breadth_first(a.initial, a.outgoing))
    return Automaton(
        states=reachable,
        alphabet=a.alphabet,
        transitions=frozenset(t for t in a.transitions if t[0] in reachable and t[2] in reachable),
        initial=a.initial,
        marked=a.marked & reachable,
    )


def run(a: Automaton, word: Iterable[str]) -> frozenset[str]:
    """States reachable from the initial state under ``word``.

    Epsilon closure is applied throughout, so the result for the empty word
    is the closure of the initial state.  The empty set means the word is
    not in the generated language.
    """
    current = unobservable_reach(a, {a.initial})
    for event in word:
        if event not in a.alphabet.events:
            raise InputError(f"unknown event {event!r}")
        current = _step(a, current, event)
        if not current:
            return frozenset()
    return current


def encode_state_set(states: Iterable[str]) -> str:
    """Canonical, byte-stable name for a set of states: `{a,b,c}` sorted."""
    return "{" + ",".join(sorted(states)) + "}"


def subset_construction(a: Automaton) -> tuple[Automaton, dict[str, frozenset[str]]]:
    """Determinize ``a``, returning the observer and its state contents.

    Observer states are canonical encodings (see :func:`encode_state_set`)
    of the underlying state sets; the returned mapping recovers those sets
    in breadth-first discovery order, labels tried in sorted order.
    The initial observer state is the epsilon closure of the initial state,
    a move by a label is the closure of the label successors, and an
    observer state is marked iff it contains a marked state of ``a``.
    """
    table = _determinize(a.states, a.transitions, a.initial, a.marked, a.alphabet)
    return table.automaton, table.members


@dataclass(frozen=True)
class SubsetTable:
    """A subset construction on dense ints, named only on first read.

    Table state ``i`` stands for the subset ``masks[i]`` of the
    determinized automaton's states, where bit ``b`` is ``bit_names[b]``
    (sorted, so a mask's members read in bit order spell its
    :func:`encode_state_set` name).  ``rows[i]`` is its ``{label: j}``
    move row; state 0 is the initial one, and states are numbered in
    breadth-first discovery order, labels tried in sorted order.  A state
    is marked iff its mask meets ``marked``.  The state ``names``, the
    ``index`` from name to number, the named ``automaton`` and its
    ``members`` are built on first read; a search that steps the table by
    ``rows`` or ``step`` builds none of them.  The walk that fills it
    (:class:`_SubsetWalk`) works label by label on ints, so it names no
    state either.
    """

    bit_names: list[str]
    masks: list[int]
    rows: list[dict[str, int]]
    marked: int
    alphabet: EventAlphabet
    initial: ClassVar[int] = 0
    __hash__ = None  # the rows and masks are lists

    def step(self, i: int | None, events: Iterable[str]) -> int | None:
        """Table state reached from ``i`` by ``events``; None when infeasible, and None stays None.

        Raises :class:`InputError` for an event outside the alphabet, met
        while the state is still feasible.
        """
        rows, known = self.rows, self.alphabet.events
        for event in events:
            if i is None:
                return None
            if event not in known:
                raise InputError(f"unknown event {event!r}")
            i = rows[i].get(event)
        return i

    @cached_property
    def names(self) -> list[str]:
        """Each table state's :func:`encode_state_set` name."""
        return _subset_names(self.bit_names, self.masks)

    @cached_property
    def index(self) -> dict[str, int]:
        """Table state number of each name."""
        return {name: i for i, name in enumerate(self.names)}

    def number(self, name: str) -> int:
        """Table state named ``name``; :class:`InputError` when there is none."""
        i = self.index.get(name)
        if i is None:
            raise InputError(f"unknown observer state {name!r}")
        return i

    @cached_property
    def automaton(self) -> Automaton:
        """The determinized automaton, states named by :attr:`names`."""
        names, marked = self.names, self.marked
        return Automaton(
            states=frozenset(names),
            alphabet=self.alphabet,
            transitions=frozenset((names[i], a, names[j]) for i, row in enumerate(self.rows) for a, j in row.items()),
            initial=names[0],
            marked=frozenset(name for name, mask in zip(names, self.masks) if mask & marked),
        )

    @cached_property
    def members(self) -> dict[str, frozenset[str]]:
        """Each state's subset by name, in table order."""
        bit_names = self.bit_names
        return {name: frozenset([bit_names[b] for b in _bits(mask)]) for name, mask in zip(self.names, self.masks)}


def _subset_names(bit_names: list[str], masks: Iterable[int]) -> list[str]:
    """The :func:`encode_state_set` name of each subset mask; bit ``b`` is ``bit_names[b]``."""
    return ["{" + ",".join([bit_names[b] for b in _bits(mask)]) + "}" for mask in masks]


def _determinize(
    states: Iterable[str],
    transitions: Iterable[Transition],
    initial: str,
    marked: Iterable[str],
    alphabet: EventAlphabet,
) -> SubsetTable:
    """:func:`subset_construction` of the automaton these parts describe, as a :class:`SubsetTable`.

    The preamble (:func:`_subset_moves`) numbers the states and closes
    their moves, label by label; the walk (:class:`_SubsetWalk`) visits
    every reachable subset mask.  A caller that keeps the walk, as each
    CA-observer does (see ``descat.estimation``), reads rows on demand and
    completes it once.  Nothing is named.
    """
    bit_names, index, moves, start = _subset_moves(states, transitions, initial)
    marked_mask = 0
    for name in marked:
        marked_mask |= 1 << index[name]
    return _SubsetWalk(bit_names, moves, start, marked_mask, alphabet).table


class _SubsetWalk(dict):
    """The subset walk from ``start`` under :func:`_subset_moves`'s moves, advanced on demand.

    ``self[i]`` is table state ``i``'s ``{label: j}`` row.  Rows are built
    in table order (breadth-first, labels sorted) by :func:`_subset_row`:
    reading row ``i`` first builds every row before it, numbering in
    ``masks`` the subsets they move to, so a search that reads a few rows
    builds a breadth-first prefix of the table and names nothing.
    :attr:`table` builds the rest, once, and is the whole
    :class:`SubsetTable`, sharing ``masks`` and the rows.  The walk reads
    ``bit_names`` and ``moves`` and changes neither.
    """

    def __init__(self, bit_names: list[str], moves: _Moves, start: int, marked: int, alphabet: EventAlphabet):
        self.bit_names, self.moves, self.marked, self.alphabet = bit_names, moves, marked, alphabet
        self.masks, self.found = [start], {start: 0}  # subset mask -> table state, in discovery order
        self.unions: list[dict[int, int]] = [{} for _ in moves]

    def __missing__(self, i: int) -> dict[str, int]:
        moves, masks, found, unions = self.moves, self.masks, self.found, self.unions
        for n in range(len(self), i + 1):
            self[n] = _subset_row(moves, masks[n], found, masks, unions)
        return self[i]

    @cached_property
    def table(self) -> SubsetTable:
        """Every subset reachable from ``start``, as a :class:`SubsetTable`."""
        moves, masks, found, unions = self.moves, self.masks, self.found, self.unions
        for n, mask in enumerate(islice(masks, len(self), None), len(self)):  # masks grows: a breadth-first queue
            self[n] = _subset_row(moves, mask, found, masks, unions)
        return SubsetTable(self.bit_names, masks, list(self.values()), self.marked, self.alphabet)


def _subset_row(moves: _Moves, mask: int, found: dict, masks: list[int], unions: list[dict]) -> dict[str, int]:
    """The ``{label: j}`` move row of the subset ``mask``, labels sorted.

    Label by label (see :func:`_subset_moves`): the members that move on
    it are ``part = mask & has``, and the target is the OR of their closed
    targets, read directly for a one-member part and otherwise kept in
    ``unions`` (one ``{part: target}`` dict per label, held by the caller).
    A target subset not yet in ``found`` is numbered ``len(masks)`` there
    and appended to ``masks``.
    """
    row = {}
    for (label, has, targets), union in zip(moves, unions):
        part = mask & has
        if part:
            target = union.get(part) if part & (part - 1) else targets[part.bit_length() - 1]
            if target is None:
                target, rest = 0, part
                while rest:
                    low = rest & -rest
                    target |= targets[low.bit_length() - 1]
                    rest ^= low
                union[part] = target
            j = found.get(target)
            if j is None:
                j = found[target] = len(masks)
                masks.append(target)
            row[label] = j
    return row


def _subset_moves(
    states: Iterable[str], transitions: Iterable[Transition], initial: str
) -> tuple[list[str], dict[str, int], _Moves, int]:
    """Numbering, closed moves and start mask of the subset construction, before any subset is visited.

    Returns the state names in sorted order (bit ``i`` of a subset mask is
    ``names[i]``, so a mask's members, read in bit order, spell its
    :func:`encode_state_set` name), the index of each name, the moves
    and the closure of ``initial``.  The moves hold one
    ``(label, has, targets)`` entry per label, in sorted label order:
    ``has`` masks the states with a move on the label, and ``targets[i]``
    is the epsilon-closed union of state ``i``'s targets on it (0 when it
    has none).  A labelled move from a closed subset is the union of its
    members' targets (:func:`_subset_row`).
    """
    names = sorted(states)
    index = {name: i for i, name in enumerate(names)}
    silent: list[list[int]] = [[] for _ in names]
    labelled = []
    for src, label, dst in transitions:
        if label == EPSILON:
            silent[index[src]].append(index[dst])
        else:
            labelled.append((index[src], label, index[dst]))
    closure = _closures(silent)
    by_label: dict[str, list[int]] = {}
    for i, label, j in labelled:
        targets = by_label.get(label)
        if targets is None:
            targets = by_label[label] = [0] * len(names)
        targets[i] |= closure[j]
    moves = [
        (label, sum(1 << i for i, target in enumerate(targets) if target), targets)  # distinct bits: sum is OR
        for label, targets in sorted(by_label.items())
    ]
    return names, index, moves, closure[index[initial]]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closures(silent: list[list[int]]) -> list[int]:
    """Every state's epsilon closure as a bitmask; ``silent[i]`` lists state ``i``'s epsilon successors.

    One Tarjan search over the silent graph: it finishes each strongly
    connected component after every component it moves into, so a
    component's closure is its members' bits OR the closures of the
    components its members move into, and no closure is searched twice.
    A state without silent moves is its own closure and is never visited.
    """
    closure = [0 if out else 1 << v for v, out in enumerate(silent)]  # 0 until finished
    number = [0] * len(silent)  # discovery number, from 1; 0 while unvisited
    low = [0] * len(silent)
    reach = [0] * len(silent)  # bits reached so far from the state's subtree
    component: list[int] = []  # Tarjan's stack of unfinished states
    count = 0
    for root in range(len(silent)):
        if closure[root] or number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        reach[root] = 1 << root
        component.append(root)
        work = [(root, iter(silent[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if closure[w]:  # a finished component
                    reach[v] |= closure[w]
                elif not number[w]:
                    count += 1
                    number[w] = low[w] = count
                    reach[w] = 1 << w
                    component.append(w)
                    work.append((w, iter(silent[w])))
                    break
                elif number[w] < low[v]:  # unfinished: in v's component
                    low[v] = number[w]
            else:
                work.pop()
                if low[v] == number[v]:  # v roots a component: its members sit above it
                    mask = reach[v]
                    while True:
                        w = component.pop()
                        closure[w] = mask
                        if w == v:
                            break
                if work:
                    u = work[-1][0]
                    reach[u] |= reach[v]
                    low[u] = min(low[u], low[v])
    return closure


def determinize(a: Automaton) -> Automaton:
    """Deterministic automaton with the same language and marked language
    (up to erasure of epsilon moves) as ``a``."""
    return _determinize(a.states, a.transitions, a.initial, a.marked, a.alphabet).automaton


def encode_pair(left: str, right: str) -> str:
    """Canonical name for a product state: `(q,z)`."""
    return f"({left},{right})"


def parallel_compose_pairs(a: Automaton, b: Automaton) -> tuple[Automaton, dict[str, tuple[str, str]]]:
    """Accessible synchronous product of ``a`` and ``b`` plus the pair contents.

    Events in both alphabets synchronize; events private to one component
    (and epsilon moves) interleave freely.  A product state is marked iff
    both components are marked.  The product is searched by
    :func:`breadth_first`, so ``pairs`` lists the states in breadth-first
    discovery order.
    """
    shared = a.alphabet.events & b.alphabet.events

    def expand(pair):
        qa, qb = pair
        moves = []
        for label, qa2 in a.outgoing(qa):
            if label != EPSILON and label in shared:
                moves.extend((label, (qa2, qb2)) for qb2 in b.successors(qb, label))
            else:
                moves.append((label, (qa2, qb)))
        moves.extend((label, (qa, qb2)) for label, qb2 in b.outgoing(qb) if label == EPSILON or label not in shared)
        return moves

    pairs: dict[str, tuple[str, str]] = {}
    transitions: set[Transition] = set()
    for pair, _, moves, _ in breadth_first((a.initial, b.initial), expand):
        name = encode_pair(*pair)
        pairs[name] = pair
        transitions.update((name, label, encode_pair(*succ)) for label, succ in moves)
    marked = frozenset(
        name for name, (qa, qb) in pairs.items() if qa in a.marked and qb in b.marked
    )
    product = Automaton(
        states=frozenset(pairs),
        alphabet=merge_alphabets(a.alphabet, b.alphabet),
        transitions=frozenset(transitions),
        initial=encode_pair(a.initial, b.initial),
        marked=marked,
    )
    return product, pairs


def parallel_compose(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous product; see :func:`parallel_compose_pairs`."""
    return parallel_compose_pairs(a, b)[0]


def natural_projection(word: Iterable[str], alphabet: EventAlphabet) -> Word:
    """Erase the unobservable events of ``word``, preserving order."""
    out = []
    for event in word:
        if event not in alphabet.events:
            raise InputError(f"unknown event {event!r}")
        if event in alphabet.observable:
            out.append(event)
    return tuple(out)


def enumerate_language(a: Automaton, depth: int, marked_only: bool = False) -> frozenset[Word]:
    """All words of length at most ``depth`` in L(a) (or Lm(a) with ``marked_only``).

    Walks ``a`` itself when it is deterministic, else :func:`determinize`
    of ``a``, level by level, one (word, state) pair per word, so epsilon
    moves do not count toward the depth.  The cost is the determinization
    plus the words: cheap for the small corruption automata and the
    deterministic automata the library passes, exponential in the worst
    case.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    d = a if a.is_deterministic else determinize(a)
    words: set[Word] = set()
    frontier = [((), d.initial)]
    for level in range(depth + 1):
        words.update(word for word, x in frontier if not marked_only or x in d.marked)
        if level < depth:
            frontier = [(word + (label,), y) for word, x in frontier for label, y in d.outgoing(x)]
    return frozenset(words)


def bounded_marked_language(a: Automaton, bound: int) -> frozenset[Word]:
    """Marked words of length at most ``bound``."""
    return enumerate_language(a, bound, marked_only=True)


def shortest_marked_length(a: Automaton) -> int | None:
    """Fewest transitions from the initial state to a marked state; None iff Lm(a) is empty."""
    return next((level for s, level, _, _ in breadth_first(a.initial, a.outgoing) if s in a.marked), None)


def marked_word_length_bound(a: Automaton) -> int | None:
    """Length of the longest marked word, or None when Lm(a) is infinite.

    An empty marked language yields 0 (every marked word vacuously fits).
    Word length counts non-epsilon labels only, so epsilon cycles do not
    make the language infinite.
    """
    relevant = {node for node, *_ in breadth_first(a.initial, a.outgoing)} & _coreachable(a)
    if not relevant:
        return 0
    # Bellman-Ford for longest paths over the trimmed graph: an edge that
    # still relaxes after |relevant| rounds lies on a cycle reading a symbol.
    edges = [
        (src, 0 if label == EPSILON else 1, dst)
        for src, label, dst in a.transitions
        if src in relevant and dst in relevant
    ]
    longest = {a.initial: 0}
    for _ in relevant:
        changed = False
        for src, weight, dst in edges:
            if src in longest and longest[src] + weight > longest.get(dst, -1):
                longest[dst] = longest[src] + weight
                changed = True
        if not changed:
            return max(longest[m] for m in relevant & a.marked)
    return None


def _coreachable(a: Automaton) -> frozenset[str]:
    """States from which some marked state is reachable."""
    pred: dict[str, set[str]] = {}
    for src, _, dst in a.transitions:
        pred.setdefault(dst, set()).add(src)
    seen = set(a.marked & a.states)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for p in pred.get(q, ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


def sub_automaton(g: Automaton, safe_states: Iterable[str]) -> Automaton:
    """Sub-automaton of ``g`` induced by a subset of its states.

    Keeps exactly the transitions of ``g`` with both endpoints in the
    subset; the initial state must belong to it.
    """
    safe = frozenset(safe_states)
    if not safe <= g.states:
        raise InputError(f"safe states {sorted(safe - g.states)} are not states of the automaton")
    if g.initial not in safe:
        raise InputError(f"initial state {g.initial!r} is not among the safe states")
    return Automaton(
        states=safe,
        alphabet=g.alphabet,
        transitions=frozenset(t for t in g.transitions if t[0] in safe and t[2] in safe),
        initial=g.initial,
        marked=g.marked & safe,
    )


def is_subautomaton(h: Automaton, g: Automaton) -> bool:
    """True iff ``h`` is ``g`` induced on a subset of states.

    Requires the same alphabet and the same initial state; the transition
    relation of ``h`` must equal that of ``g`` restricted to pairs of
    ``h``-states.  Only ``g``'s moves out of ``h``-states are read, so the
    cost follows the spec, not the plant.
    """
    if h.alphabet != g.alphabet:
        raise InputError("sub-automaton check requires identical alphabets")
    if h.initial != g.initial or not h.states <= g.states:
        return False
    states = h.states
    kept = 0
    for q in states:
        moves = h.outgoing(q)
        if moves != tuple(move for move in g.outgoing(q) if move[1] in states):
            return False
        kept += len(moves)
    return kept == len(h.transitions) and h.marked == g.marked & states
