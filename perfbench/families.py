"""Seeded generators for the benchmark's model families.

Every generator returns the text of a `.des` document and builds it
without the library, so the library only ever sees parsed documents.  The
same seed gives the same bytes: all choices come from one
``random.Random`` and every collection is walked in a fixed order.

Random plants are chains of modules.  A module is a small random graph in
the shape of the ROADMAP baseline family (a spanning tree plus 30 % extra
edges over the events ``a b c u``); modules are joined in a ring by the
event ``d``, which is observable, unattacked and used nowhere else.  Every
state estimate therefore falls back into one module after each ``d``, so
observer and product sizes add up over modules instead of multiplying.
Each module is also the median, by attacked-observer size, of five random
draws.  Both keep the cost of a model steady across seeds, which a
benchmark whose seed changes between runs needs, while each module stays
random.

Families:

* ``certify``: each module has one unsafe state, entered by the dedicated
  controllable event ``x`` only.  The CA-supervisor disables ``x`` alone,
  so controllability, observability and large-language equality hold by
  construction.
* ``refute``: about 10 % of the states are unsafe, and an actuator-
  attackable ``c`` edge leaves the spec from the initial state, so
  controllability and large-language equality fail at once.
* ``obs``: a ``certify`` plant under an observation-based attack whose
  context automaton is the plant's own projection observer.
* the fixed corpus models ``cycle`` and ``cycle_beta``.
"""

from __future__ import annotations

import random

# Event rows of the generated alphabets: name and flags.
_EVENTS = (
    ("a", "controllable observable sensor-attackable"),
    ("b", "controllable observable sensor-attackable"),
    ("c", "controllable observable actuator-attackable"),
    ("d", "controllable observable"),
    ("u", ""),
    ("x", "controllable observable"),
)
_ATTACKED = ("a", "b")
_MODULE_EVENTS = ("a", "b", "c", "u")
_OBSERVABLE = frozenset(name for name, flags in _EVENTS if "observable" in flags)

# Acyclic corruption languages over {a, b}: (transitions, marked states).
# Each replaces the attacked event by a word of at most two events; the
# second also lets the attacker erase it.
_CORRUPTIONS = (
    ((("f0", "a", "f1"), ("f0", "b", "f1")), ("f1",)),
    ((("f0", "a", "f1"), ("f0", "b", "f1")), ("f0", "f1")),
    ((("f0", "a", "f1"), ("f0", "b", "f2"), ("f1", "b", "f2")), ("f1", "f2")),
    ((("f0", "b", "f1"), ("f1", "a", "f2"), ("f0", "a", "f2")), ("f2",)),
)


def _automaton_lines(initial, states, marked, transitions) -> list[str]:
    lines = [f"  initial {initial}", "  states " + " ".join(sorted(states))]
    if marked:
        lines.append("  marked " + " ".join(sorted(marked)))
    lines.extend(f"  transition {s} {e} {d}" for s, e, d in sorted(transitions))
    return lines


def _corruption_lines(index: int) -> list[str]:
    transitions, marked = _CORRUPTIONS[index]
    states = {s for s, _, _ in transitions} | {d for _, _, d in transitions}
    return _automaton_lines("f0", states, marked, transitions)


def _document(events, delta: dict, states: list[str], safe) -> list[str]:
    """Alphabet, plant and spec sections; the initial state is ``states[0]``."""
    lines = ["alphabet:"]
    lines.extend(f"  {name} {flags}".rstrip() for name, flags in events)
    transitions = [(s, e, d) for (s, e), d in delta.items()]
    lines += ["", "plant:"] + _automaton_lines(states[0], states, (), transitions)
    lines += ["", "spec:", "  safe-states " + " ".join(sorted(safe))]
    return lines


def _random_graph(rng: random.Random, states: list[str], extra: float = 0.3) -> dict:
    """Deterministic transition map: a spanning tree from ``states[0]`` plus extra edges."""
    delta: dict[tuple[str, str], str] = {}
    for i in range(1, len(states)):
        slots = [(src, e) for src in states[:i] for e in _MODULE_EVENTS if (src, e) not in delta]
        delta[rng.choice(slots)] = states[i]
    for q in states:
        for e in _MODULE_EVENTS:
            if (q, e) not in delta and rng.random() < extra:
                delta[(q, e)] = rng.choice(states)
    return delta


def _join(modules: list[tuple[list[str], list[str]]], delta: dict) -> None:
    """Ring of ``d`` edges from each module's exits to the next module's entry."""
    for i, (_, exits) in enumerate(modules):
        entry = modules[(i + 1) % len(modules)][0][0]
        for q in exits:
            delta[(q, "d")] = entry


def _certify_module(rng: random.Random, m: int, size: int):
    """States, ``d`` exits and edges of one certify module.

    Every state keeps a safe successor by an event other than ``c``, so no
    run deadlocks even when the attacker withholds ``c``; the module's
    unsafe state ``v<m>`` is entered by ``x`` only.
    """
    states = [f"s{m}_{i}" for i in range(size)]
    delta = _random_graph(rng, states)
    exits = rng.sample(states, 2)
    for q in states:
        if q not in exits and not any((q, e) in delta for e in ("a", "b", "u")):
            free = [e for e in ("a", "b", "u") if (q, e) not in delta]
            delta[(q, rng.choice(free))] = rng.choice(states)
    delta[(rng.choice(states), "x")] = f"v{m}"
    return states, exits, delta


def _refute_module(rng: random.Random, m: int, size: int):
    """States, ``d`` exits and edges of one refute module.

    As in a certify module, every state keeps a successor in the module by
    ``a``, ``b`` or ``u``, so a random run seldom stops at a dead end and
    the campaigns' run lengths vary little between seeds.  ``size // 10``
    unsafe states ``t<m>_<j>`` are each entered from a random module state
    by a random module event.
    """
    states = [f"q{m}_{i}" for i in range(size)]
    delta = _random_graph(rng, states)
    exits = rng.sample(states, 2)
    for q in states:
        if q not in exits and not any((q, e) in delta for e in ("a", "b", "u")):
            free = [e for e in ("a", "b", "u") if (q, e) not in delta]
            delta[(q, rng.choice(free))] = rng.choice(states)
    for j in range(size // 10):
        free = [(q, e) for q in states for e in _MODULE_EVENTS if (q, e) not in delta]
        delta[rng.choice(free)] = f"t{m}_{j}"
    return states, exits, delta


def _median_module(rng: random.Random, draw, corruption: int, k: int = 5):
    """Draw ``k`` modules and keep the one whose attacked observer has the median size.

    Observer sizes of random modules have a long tail; keeping the median
    of five makes the sums over a model's modules steady across seeds while
    every module stays a random draw.
    """
    candidates = [draw() for _ in range(k)]
    sizes = [_observer_size(states, delta, corruption) for states, _, delta in candidates]
    return candidates[sorted(range(k), key=lambda i: (sizes[i], i))[k // 2]]


def _observer_size(states: list[str], delta: dict, corruption: int) -> int:
    """State count of one module's CA-observer, computed without the library.

    Each ``a``/``b`` edge is replaced by a copy of the corruption
    automaton, ``u`` is silent, and the subset construction starts from
    the module entry.  ``d`` edges and edges leaving the module's safe
    states are ignored, since each ``d`` resets the estimate to the next
    module's entry.
    """
    inside = set(states)
    transitions, marked = _CORRUPTIONS[corruption]
    moves: dict[object, list[tuple[str, object]]] = {}  # "" labels a silent move
    for (src, e), dst in delta.items():
        if e == "d" or dst not in inside:
            continue
        if e in _ATTACKED:
            moves.setdefault(src, []).append(("", (src, e, "f0")))
            for fs, label, fd in transitions:
                moves.setdefault((src, e, fs), []).append((label, (src, e, fd)))
            for fm in marked:
                moves.setdefault((src, e, fm), []).append(("", dst))
        else:
            moves.setdefault(src, []).append(("" if e == "u" else e, dst))

    def closure(current) -> frozenset:
        seen, stack = set(current), list(current)
        while stack:
            for label, nxt in moves.get(stack.pop(), ()):
                if not label and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    start = closure({states[0]})
    seen, stack = {start}, [start]
    while stack:
        current = stack.pop()
        for event in ("a", "b", "c"):
            hit = {nxt for q in current for label, nxt in moves.get(q, ()) if label == event}
            target = closure(hit)
            if hit and target not in seen:
                seen.add(target)
                stack.append(target)
    return len(seen)


def certify_text(seed: int, n_modules: int, size: int) -> str:
    """A certify model; module ``m`` uses corruption language ``m mod 4``.

    Cycling the languages over modules, rather than drawing them, keeps
    every model's mix of corruption languages the same.
    """
    rng = random.Random(seed)
    delta: dict[tuple[str, str], str] = {}
    modules = []
    for m in range(n_modules):
        corruption = m % len(_CORRUPTIONS)
        states, exits, edges = _median_module(rng, lambda: _certify_module(rng, m, size), corruption)
        modules.append((states, exits))
        delta.update(edges)
    _join(modules, delta)
    safe = [q for states, _ in modules for q in states]
    lines = _document(_EVENTS, delta, safe + [f"v{m}" for m in range(n_modules)], safe)
    for (src, event), dst in sorted(delta.items()):
        if event in _ATTACKED:
            module = int(src[1:].split("_")[0])
            lines += ["", f"attack tr {src} {event} {dst}:"]
            lines += _corruption_lines(module % len(_CORRUPTIONS))
    return "\n".join(lines) + "\n"


def refute_text(seed: int, n_modules: int, size: int) -> str:
    """A model in which an actuator-attackable ``c`` edge leaves the spec at once.

    Each module adds ``size // 10`` unsafe states to its ``size`` safe
    ones.  The initial state ``start`` leads by ``d`` to the first module
    and by ``c`` to the unsafe state ``trap``, so controllability and
    large-language equality fail on the empty string.  Every unsafe state
    returns to its module's entry by ``u``, so runs go on after a
    violation.
    """
    rng = random.Random(seed)
    delta: dict[tuple[str, str], str] = {("start", "d"): "q0_0", ("start", "c"): "trap", ("trap", "u"): "q0_0"}
    modules = []
    for m in range(n_modules):
        states, exits, edges = _median_module(rng, lambda: _refute_module(rng, m, size), 0)
        modules.append((states, exits))
        delta.update(edges)
    _join(modules, delta)
    unsafe = sorted({d for d in delta.values() if d.startswith("t") and d != "trap"})
    for t in unsafe:
        delta[(t, "u")] = f"q{t[1:].split('_')[0]}_0"
    safe = ["start"] + [q for states, _ in modules for q in states]
    events = [row for row in _EVENTS if row[0] != "x"]
    lines = _document(events, delta, safe + unsafe + ["trap"], safe)
    for event in _ATTACKED:
        lines += ["", f"attack event {event}:"] + _corruption_lines(0)
    return "\n".join(lines) + "\n"


def _projection_observer(delta: dict, initial: str):
    """Subset construction of the plant with unobservable events erased.

    Returns the context states ``z<i>`` (numbered in breadth-first order),
    the context transitions and the reachable (plant state, context) pairs.
    """
    out: dict[str, list[tuple[str, str]]] = {}
    for (s, e), d in sorted(delta.items()):
        out.setdefault(s, []).append((e, d))

    def closure(states) -> frozenset[str]:
        seen, stack = set(states), list(states)
        while stack:
            for e, d in out.get(stack.pop(), ()):
                if e not in _OBSERVABLE and d not in seen:
                    seen.add(d)
                    stack.append(d)
        return frozenset(seen)

    start = closure({initial})
    names = {start: "z0"}
    order = [start]
    transitions = []
    for current in order:
        for event in sorted(_OBSERVABLE):
            target = closure({d for q in sorted(current) for e, d in out.get(q, ()) if e == event})
            if not target:
                continue
            if target not in names:
                names[target] = f"z{len(names)}"
                order.append(target)
            transitions.append((names[current], event, names[target]))
    step = {(s, e): d for s, e, d in transitions}
    pairs = {(initial, "z0")}
    stack = [(initial, "z0")]
    while stack:
        q, z = stack.pop()
        for e, d in out.get(q, ()):
            nxt = (d, step[(z, e)] if e in _OBSERVABLE else z)
            if nxt not in pairs:
                pairs.add(nxt)
                stack.append(nxt)
    return list(names.values()), transitions, pairs


def obs_text(seed: int, entries: int, size: int) -> str:
    """A certify plant under an observation-based attack.

    Modules are added until the plant composed with its context automaton
    has between ``entries`` and 5 % more attacked transitions, which is
    the number of policy entries the conversion to a transition-based
    attack yields; a module that would overshoot is drawn again.
    ``omega`` maps every reachable (context state, attacked event) pair to
    the replacement language {a, b}; longer or erasing languages there make
    the large-language product vary a hundredfold between seeds.
    """
    rng = random.Random(seed)
    delta: dict[tuple[str, str], str] = {}
    modules = []
    while True:
        m = len(modules)
        states, exits, edges = _median_module(rng, lambda: _certify_module(rng, m, size), 0)
        module = (states, exits)
        trial = {**delta, **edges}
        joined = dict(trial)
        _join(modules + [module], joined)
        found = _projection_observer(joined, "s0_0")
        attacked = [(z, e) for q, z in found[2] for e in _ATTACKED if (q, e) in joined]
        if len(attacked) > entries + entries // 20:
            continue
        delta = trial
        modules.append(module)
        contexts, sa_transitions, _ = found
        if len(attacked) >= entries:
            break
    safe = [q for states, _ in modules for q in states]
    lines = _document(_EVENTS, joined, safe + [f"v{m}" for m in range(len(modules))], safe)
    lines += ["", "sa:"] + _automaton_lines("z0", contexts, (), sa_transitions)
    for z, event in sorted(set(attacked)):
        lines += ["", f"omega {z} {event}:"] + _corruption_lines(0)
    return "\n".join(lines) + "\n"


_CYCLE = """\
alphabet:
  alpha controllable observable{alpha}
  beta controllable observable actuator-attackable
  lambda controllable observable sensor-attackable
  mu controllable observable sensor-attackable

plant:
  initial 1
  states 1 2 3 4
  transition 1 alpha 2
  transition 2 alpha 4
  transition 2 lambda 3
  transition 3 mu 1

spec:
  safe-states 1 2 3

attack tr 2 lambda 3:
  initial A
  states A B C
  marked A B C
  transition A lambda C
  transition C mu B

attack tr 3 mu 1:
  initial D
  states D E
  marked E
  transition D mu E
  transition D beta E
"""

#: The corpus cycle with only ``beta`` exposed: a safe supervisor exists.
CYCLE_BETA = _CYCLE.format(alpha="")
#: The corpus cycle with ``alpha`` exposed too: ``alpha alpha`` escapes.
CYCLE = _CYCLE.format(alpha=" actuator-attackable")
