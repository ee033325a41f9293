"""Independent oracles used to cross-check the library's constructions.

Most of them work directly on the raw automaton data (state sets and
transition triples) with their own breadth-first searches, deliberately
avoiding the library's observer, substitution and enumeration machinery.
``diamond_by_replacement`` builds the attack-substituted plant by folding
the one-transition substitution over the policy entries.
``subset_construction_by_names`` determinizes on sets of state names,
closing every step under epsilon moves afresh, and
``language_by_word_frontier`` enumerates words the same way, one state set
per word.  ``phi_by_concatenation`` concatenates the per-step corruption
words of a plant string (``policy_steps``) or an observation
(``omega_steps``) one step at a time, and ``theta_by_chain`` links one
block per step of a string.
``containment_by_search`` and ``strategy_problems_two_pass`` check an
observation-based attack with a search of their own before composing the
plant with its context, and ``longest_marked_word_by_closure`` bounds
marked words by an all-pairs longest-path closure over a graph it trims
with its own searches.  ``product_by_queue`` composes two automata with a
queue and a visit helper of its own.  ``closures_by_search`` closes every
state of a silent graph with a depth-first search of its own, and
``is_subautomaton_by_filter`` induces the spec by filtering every plant
transition.  ``subset_walk_by_members`` walks the subset construction on
masks as the library once did, unioning every member's own moves.
``observability_by_enumeration`` and ``brute_force_large_language``
evaluate verification's definitions literally, string by string, on top
of the library's observer and the oracles' own ``marked_words``.
``supervisor_by_names`` derives a synthesized supervisor's named
observer, members, controls and estimates from
``subset_construction_by_names`` and ``disabled_set``.
``closed_loop_by_name_sets`` is the closed-loop arena on frozensets of
observer-state names, with its own step relation; verify, the
large-language product and the bounded observability check are walked on
it by ``verify_by_name_sets``, ``large_language_by_name_sets`` and
``observability_by_name_sets``.  ``quotient_by_pairs`` partitions an
observer table by control and row with a pairwise relation it refines
until it holds still.  The last two,
``simulate_by_rewalk`` and ``campaign_by_rewalk``, run the closed loop by
asking ``control_for`` for the whole observation at every step and by
re-walking every observation prefix for coverage.  ``heights_by_ranking``
ranks every node of an exhaustive-attacker arena by its longest walk at
once, from parent lists over every edge, as the simulator once did.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable

from descat import (
    EPSILON,
    AttackerStrategy,
    Automaton,
    CampaignReport,
    Counterexample,
    DiamondAutomaton,
    InputError,
    LanguageSample,
    LargeLanguageAutomaton,
    ObservationAttackStrategy,
    SensorAttackPolicy,
    Trace,
    TraceStep,
    Verdict,
    build_ca_observer,
    build_g_diamond,
    convert_observation_based,
    delta_control,
    disabled_set,
    erase_unobservable,
    marked_word_length_bound,
    natural_projection,
    parallel_compose_pairs,
    replace_transition,
    transition_based_setup,
)
from descat.attacks import _corruption_defects, ensure_valid_policy
from descat.estimation import attacked_observer
from descat.automata import (
    Transition,
    Word,
    _step,
    breadth_first,
    encode_pair,
    encode_state_set,
    ensure_deterministic,
    merge_alphabets,
    unobservable_reach,
    validate,
)


def _adjacency(a: Automaton) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {}
    for src, label, dst in sorted(a.transitions):
        adj.setdefault(src, []).append((label, dst))
    return adj


def _reachable(adj, sources: Iterable[str]) -> set[str]:
    """States reachable from ``sources`` along the edges of ``adj``, labels ignored."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for _, dst in adj.get(stack.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _eps_closure(adj, states: frozenset[str]) -> frozenset[str]:
    out = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for label, dst in adj.get(q, ()):
            if label == EPSILON and dst not in out:
                out.add(dst)
                stack.append(dst)
    return frozenset(out)


def closures_by_search(silent: list[list[int]]) -> list[int]:
    """Every state's epsilon closure as a bitmask, one search per state; ``silent[i]`` lists ``i``'s successors."""
    closure = []
    for v in range(len(silent)):
        seen = {v}
        stack = [v]
        while stack:
            for w in silent[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closure.append(sum(1 << w for w in seen))
    return closure


def subset_walk_by_members(a: Automaton) -> tuple[list[int], list[dict[str, int]]]:
    """Reference for the subset walk's int table: ``(masks, rows)`` of :func:`subset_construction` of ``a``.

    Bit ``i`` is the ``i``-th state name in sorted order.  Every state
    keeps its own ``{label: mask}`` moves, targets closed by
    :func:`closures_by_search`, and a subset's move is the union of its
    members' moves, read member by member; subsets are numbered in
    breadth-first discovery order, labels tried in sorted order.
    """
    names = sorted(a.states)
    index = {name: i for i, name in enumerate(names)}
    silent: list[list[int]] = [[] for _ in names]
    for src, label, dst in a.transitions:
        if label == EPSILON:
            silent[index[src]].append(index[dst])
    closure = closures_by_search(silent)
    moves: list[dict[str, int]] = [{} for _ in names]
    for src, label, dst in a.transitions:
        if label != EPSILON:
            out = moves[index[src]]
            out[label] = out.get(label, 0) | closure[index[dst]]
    masks = [closure[index[a.initial]]]
    found = {masks[0]: 0}
    rows = []
    for mask in masks:  # grows as subsets are found: a breadth-first queue
        step: dict[str, int] = {}
        for i in range(len(names)):
            if mask >> i & 1:
                for label, target in moves[i].items():
                    step[label] = step.get(label, 0) | target
        row = {}
        for label in sorted(step):
            if step[label] not in found:
                found[step[label]] = len(masks)
                masks.append(step[label])
            row[label] = found[step[label]]
        rows.append(row)
    return masks, rows


def is_subautomaton_by_filter(h: Automaton, g: Automaton) -> bool:
    """``h`` is ``g`` induced on ``h``'s states: same alphabet and initial state, induced transitions and markings."""
    if h.alphabet != g.alphabet:
        raise InputError("sub-automaton check requires identical alphabets")
    if h.initial != g.initial or not h.states <= g.states:
        return False
    induced = frozenset(t for t in g.transitions if t[0] in h.states and t[2] in h.states)
    return h.transitions == induced and h.marked == g.marked & h.states


def accepts(a: Automaton, word, marked_only=False) -> bool:
    """Membership test by direct set simulation (epsilon-aware)."""
    adj = _adjacency(a)
    current = _eps_closure(adj, frozenset({a.initial}))
    for event in word:
        nxt = set()
        for q in current:
            for label, dst in adj.get(q, ()):
                if label == event:
                    nxt.add(dst)
        current = _eps_closure(adj, frozenset(nxt))
        if not current:
            return False
    return bool(current & a.marked) if marked_only else True


def language_by_scan(a: Automaton, depth: int, marked_only=False) -> frozenset[tuple[str, ...]]:
    """All accepted words up to ``depth``, by scanning every candidate word."""
    labels = sorted({t[1] for t in a.transitions if t[1] != EPSILON})
    found = set()
    frontier = [()]
    for _ in range(depth + 1):
        nxt = []
        for word in frontier:
            if accepts(a, word, marked_only=marked_only):
                found.add(word)
            # keep extending even through non-accepted prefixes only when
            # states remain; cheap pruning via plain acceptance of the prefix
            if accepts(a, word):
                nxt.extend(word + (label,) for label in labels)
        frontier = [w for w in nxt if len(w) <= depth]
        if not frontier:
            break
    return frozenset(w for w in found if len(w) <= depth)


def marked_words(f: Automaton, limit: int, _cache={}) -> frozenset[tuple[str, ...]]:
    """Marked words of an epsilon-free automaton up to ``limit`` symbols."""
    key = (f, limit)
    if key in _cache:
        return _cache[key]
    adj = _adjacency(f)
    found = set()
    frontier: dict[tuple[str, ...], frozenset[str]] = {(): frozenset({f.initial})}
    if f.initial in f.marked:
        found.add(())
    for _ in range(limit):
        nxt: dict[tuple[str, ...], set[str]] = {}
        for word, states in frontier.items():
            for q in states:
                for label, dst in adj.get(q, ()):
                    nxt.setdefault(word + (label,), set()).add(dst)
        frontier = {w: frozenset(s) for w, s in nxt.items()}
        if not frontier:
            break
        found.update(w for w, s in frontier.items() if s & f.marked)
    result = frozenset(found)
    _cache[key] = result
    return result


def language_by_word_frontier(a: Automaton, depth: int, marked_only=False) -> frozenset[Word]:
    """Reference for :func:`enumerate_language`: one state set per word.

    Steps every word of the frontier by every label, closing each step
    under epsilon moves afresh.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    labels = sorted({label for _, label, _ in a.transitions if label != EPSILON})

    def accepted(states: frozenset[str]) -> bool:
        return bool(states & a.marked) if marked_only else bool(states)

    words: set[Word] = set()
    frontier: dict[Word, frozenset[str]] = {(): unobservable_reach(a, {a.initial})}
    if accepted(frontier[()]):
        words.add(())
    for _ in range(depth):
        nxt: dict[Word, frozenset[str]] = {}
        for word, states in frontier.items():
            for label in labels:
                target = _step(a, states, label)
                if target:
                    nxt[word + (label,)] = target
        frontier = nxt
        if not frontier:
            break
        words.update(w for w, states in frontier.items() if accepted(states))
    return frozenset(words)


def policy_steps(word: Iterable[str], g: Automaton, policy: SensorAttackPolicy) -> list:
    """Per-step corruption sources of a plant string, for :func:`phi_by_concatenation`.

    Each entry is the attack automaton of an attacked step, the event of
    an unattacked observable step, or None for an unobservable step.
    """
    q = g.initial
    steps = []
    for event in word:
        dst = g.delta(q, event)
        if dst is None:
            raise InputError(f"string {' '.join(word) or 'ε'!s} is not in the plant language")
        f = policy.language_automaton((q, event, dst))
        steps.append(f if f is not None else event if event in g.alphabet.observable else None)
        q = dst
    return steps


def omega_steps(observation: Iterable[str], strategy, alphabet) -> list:
    """Per-step corruption sources of an observation under an observation-based attack.

    The corruption automaton chosen at the current context state for an
    attackable event, the event itself otherwise.
    """
    observation = tuple(observation)
    z = strategy.sa.initial
    steps = []
    for event in observation:
        if event not in alphabet.observable:
            raise InputError(f"observation contains non-observable event {event!r}")
        if event in alphabet.sensor_attackable:
            f = strategy.corruption(z, event)
            if f is None:
                raise InputError(f"no corruption language for context pair ({z!r}, {event!r})")
            steps.append(f)
        else:
            steps.append(event)
        z2 = strategy.sa.delta(z, event)
        if z2 is None:
            raise InputError(f"observation {' '.join(observation)} leaves the attack-context automaton at {z!r}")
        z = z2
    return steps


def phi_by_concatenation(steps: list, depth: int | None = None) -> LanguageSample:
    """Reference for :func:`phi_enumerate` and :func:`phi_omega`: the per-step concatenation.

    ``steps`` comes from :func:`policy_steps` or :func:`omega_steps`.  The
    sample is the set of prefix-plus-fragment words, extended one step at
    a time with each step's words that still fit in ``depth``; with
    ``depth=None`` the depth is the sum of the per-step longest words.
    Corruption automata must be epsilon-free, as a valid attack's are.
    """
    total = 0
    infinite = False
    for step in steps:
        if isinstance(step, Automaton):
            bound = longest_marked_word_by_closure(step)
            infinite = infinite or bound is None
            total += bound or 0
        elif step is not None:
            total += 1
    if depth is None:
        if infinite:
            raise InputError(
                "some attack language is infinite; pass an explicit depth to truncate the enumeration"
            )
        depth = total
    frontier: set[Word] = {()}
    for step in steps:
        if step is None:
            continue
        nxt: set[Word] = set()
        for prefix in frontier:
            budget = depth - len(prefix)
            if isinstance(step, Automaton):
                fragments = marked_words(step, budget)
            else:
                fragments = {(step,)} if budget >= 1 else ()
            nxt.update(prefix + fragment for fragment in fragments)
        frontier = nxt
    return LanguageSample(strings=frozenset(frontier), depth=depth, truncated=infinite or total > depth)


def theta_by_chain(word: Iterable[str], g: Automaton, policy: SensorAttackPolicy) -> Automaton:
    """Reference for :func:`theta_automaton`: links one block per step of the string.

    An unattacked step is the edge ``k/in -> k/out``, an attacked one a
    copy of its attack automaton with states ``k/<state>``; every exit of
    step ``k - 1`` (state ``0`` for the first) has a silent move into
    step ``k``'s entry.
    """
    q = g.initial
    states = {"0"}
    transitions: set[Transition] = set()
    exits = {"0"}
    for k, event in enumerate(word, start=1):
        dst = g.delta(q, event)
        if dst is None:
            raise InputError(f"string {' '.join(word)} is not in the plant language")
        f = policy.language_automaton((q, event, dst))
        if f is None:
            entry, out = f"{k}/in", f"{k}/out"
            states |= {entry, out}
            transitions.add((entry, event, out))
            nxt = {out}
        else:
            states |= {f"{k}/{s}" for s in f.states}
            transitions |= {(f"{k}/{src}", label, f"{k}/{d}") for src, label, d in f.transitions}
            entry, nxt = f"{k}/{f.initial}", {f"{k}/{m}" for m in f.marked}
        transitions |= {(e, EPSILON, entry) for e in exits}
        exits = nxt
        q = dst
    return Automaton(
        states=frozenset(states),
        alphabet=g.alphabet,
        transitions=frozenset(transitions),
        initial="0",
        marked=frozenset(exits),
    )


def _fragments(g: Automaton, policy: SensorAttackPolicy, tr, budget: int):
    f = policy.language_automaton(tr)
    if f is not None:
        return marked_words(f, budget)
    if tr[1] in g.alphabet.observable:
        return frozenset({(tr[1],)}) if budget >= 1 else frozenset()
    return frozenset({()})


def phi_language_oracle(g: Automaton, policy: SensorAttackPolicy, depth: int) -> frozenset[tuple[str, ...]]:
    """Every observation of length <= depth some plant string can produce.

    Breadth-first over (plant state, emitted observation) pairs; terminates
    even with infinite attack languages because the pair space is finite.
    """
    adj = _adjacency(g)
    seen = {(g.initial, ())}
    queue = [(g.initial, ())]
    while queue:
        q, t = queue.pop(0)
        for label, dst in adj.get(q, ()):
            for u in _fragments(g, policy, (q, label, dst), depth - len(t)):
                node = (dst, t + u)
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return frozenset(t for _, t in seen)


def estimate_oracle(g: Automaton, policy: SensorAttackPolicy, observation) -> frozenset[str]:
    """States some plant string ending exactly in ``observation`` can reach.

    Fixpoint search over (plant state, matched prefix length); no length
    bound on the plant string is needed.
    """
    target = tuple(observation)
    adj = _adjacency(g)
    seen = {(g.initial, 0)}
    queue = [(g.initial, 0)]
    while queue:
        q, i = queue.pop(0)
        for label, dst in adj.get(q, ()):
            for u in _fragments(g, policy, (q, label, dst), len(target) - i):
                if target[i : i + len(u)] != u:
                    continue
                node = (dst, i + len(u))
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return frozenset(q for q, i in seen if i == len(target))


def omega_estimate_oracle(g: Automaton, strategy, observation) -> frozenset[str]:
    """States reachable by some plant string whose context-corrupted image
    contains exactly ``observation``; fixpoint over (plant, context, matched)."""
    target = tuple(observation)
    adj = _adjacency(g)
    sa_adj = _adjacency(strategy.sa)
    observable = g.alphabet.observable
    attackable = g.alphabet.sensor_attackable

    def sa_step(z, event):
        for label, dst in sa_adj.get(z, ()):
            if label == event:
                return dst
        return None

    start = (g.initial, strategy.sa.initial, 0)
    seen = {start}
    queue = [start]
    while queue:
        q, z, i = queue.pop(0)
        for label, dst in adj.get(q, ()):
            if label not in observable:
                nodes = [(dst, z, i)]
            else:
                z2 = sa_step(z, label)
                if z2 is None:
                    continue
                if label in attackable:
                    fragments = marked_words(strategy.omega[(z, label)], len(target) - i)
                else:
                    fragments = frozenset({(label,)})
                nodes = [
                    (dst, z2, i + len(u))
                    for u in fragments
                    if target[i : i + len(u)] == u
                ]
            for node in nodes:
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return frozenset(q for q, _, i in seen if i == len(target))


def projected_marked_words(a: Automaton, depth: int, observable=None) -> frozenset[tuple[str, ...]]:
    """Emitted label sequences of marked runs, up to ``depth`` symbols.

    A label is emitted unless it is epsilon or (when ``observable`` is
    given) outside the observable set.  Runs may be arbitrarily long; the
    search is over (state, emitted word) pairs, so silent cycles terminate.
    """
    adj = _adjacency(a)
    seen = {(a.initial, ())}
    queue = [(a.initial, ())]
    while queue:
        q, t = queue.pop(0)
        for label, dst in adj.get(q, ()):
            silent = label == EPSILON or (observable is not None and label not in observable)
            t2 = t if silent else t + (label,)
            if len(t2) > depth:
                continue
            node = (dst, t2)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return frozenset(t for q, t in seen if q in a.marked)


def shortest_uncovered_observation(g: Automaton, sa: Automaton) -> tuple[str, ...] | None:
    """A shortest observation of ``g`` that the deterministic ``sa`` cannot follow, or None.

    Searches pairs (plant states some observation leads to, ``sa`` state),
    so it counts observed events, not plant events.
    """
    adj = _adjacency(g)
    observable = g.alphabet.observable

    def silent_closure(states) -> frozenset[str]:
        out = set(states)
        stack = list(out)
        while stack:
            for label, dst in adj.get(stack.pop(), ()):
                if (label == EPSILON or label not in observable) and dst not in out:
                    out.add(dst)
                    stack.append(dst)
        return frozenset(out)

    start = (silent_closure({g.initial}), sa.initial)
    seen = {start}
    queue = [(start, ())]
    while queue:
        (states, z), word = queue.pop(0)
        for event in sorted(observable):
            reached = silent_closure({dst for q in states for label, dst in adj.get(q, ()) if label == event})
            if not reached:
                continue
            z2 = [dst for src, label, dst in sa.transitions if src == z and label == event]
            if not z2:
                return word + (event,)
            node = (reached, z2[0])
            if node not in seen:
                seen.add(node)
                queue.append((node, word + (event,)))
    return None


def containment_by_search(g: Automaton, sa: Automaton) -> Word | None:
    """Reference for :func:`check_projection_containment`, by its own search.

    Searches (plant state, ``sa`` state) pairs breadth first, with
    unobservable plant moves leaving the ``sa`` state unchanged whatever
    ``sa``'s alphabet declares, and spells the first uncovered plant
    string's observation from parent pointers.
    """
    observable = g.alphabet.observable
    start = (g.initial, sa.initial)
    parents: dict[tuple[str, str], tuple[tuple[str, str], str | None] | None] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        q, z = pair
        for event, q2 in g.outgoing(q):
            if event == EPSILON or event not in observable:
                nxt, emitted = (q2, z), None
            else:
                z2 = sa.delta(z, event)
                if z2 is None:
                    out = [event]
                    while parents[pair] is not None:
                        pair, emitted = parents[pair]
                        if emitted is not None:
                            out.append(emitted)
                    return tuple(reversed(out))
                nxt, emitted = (q2, z2), event
            if nxt not in parents:
                parents[nxt] = (pair, emitted)
                queue.append(nxt)
    return None


def strategy_problems_two_pass(g: Automaton, strategy) -> tuple[list[str], tuple | None]:
    """Reference for :func:`validate_strategy` and :func:`convert_observation_based`.

    Checks coverage with :func:`containment_by_search`, then composes the
    plant with the context and walks the product's sorted transitions
    twice: once for the reachable pairs without a corruption language (each
    pair once, in the order of its first transition), once for the policy
    entries.  Returns the problems and, when the context is deterministic
    and covers the plant, ``(product, pairs, entries)``.
    """
    problems = []
    sa = strategy.sa
    observable = g.alphabet.observable
    attackable = g.alphabet.sensor_attackable
    problems.extend(f"attack-context automaton: {problem}" for problem in validate(sa))
    if not sa.is_deterministic:
        problems.append("the attack-context automaton must be deterministic")
    for _, label, _ in sorted(sa.transitions):
        if label == EPSILON or label not in observable:
            problems.append(f"attack-context transition label {label!r} is not an observable event")
    witness = containment_by_search(g, sa) if sa.is_deterministic else None
    if witness is not None:
        problems.append(
            "the attack-context automaton does not cover the projected plant language; "
            f"witness observation: {' '.join(witness) or 'ε'}"
        )
    memo: dict = {}
    for (z, event), f in sorted(strategy.omega.items(), key=lambda kv: kv[0]):
        if z not in sa.states:
            problems.append(f"corruption entry for unknown context state {z!r}")
        if event not in attackable:
            problems.append(f"corruption entry for non-attackable event {event!r}")
        structural, bad_labels, empty = _corruption_defects(f, observable, memo)
        problems.extend(f"corruption automaton for ({z!r}, {event!r}): {problem}" for problem in structural)
        problems.extend(
            f"corruption automaton for ({z!r}, {event!r}): label {label!r} is not observable" for label in bad_labels
        )
        if empty:
            problems.append(f"corruption automaton for ({z!r}, {event!r}) has an empty language")
    if not sa.is_deterministic or witness is not None:
        return problems, None
    product, pairs = parallel_compose_pairs(g, sa)
    missing = []
    for name, label, _ in sorted(product.transitions):
        key = (pairs[name][1], label)
        if label in attackable and key not in strategy.omega and key not in missing:
            missing.append(key)
    problems.extend(f"no corruption language for reachable context pair {key!r}" for key in missing)
    entries = {
        tr: strategy.omega[(pairs[tr[0]][1], tr[1])]
        for tr in sorted(product.transitions)
        if tr[1] in attackable and (pairs[tr[0]][1], tr[1]) in strategy.omega
    }
    return problems, (product, pairs, entries)


def product_by_queue(a: Automaton, b: Automaton) -> tuple[Automaton, dict[str, tuple[str, str]]]:
    """Reference for :func:`parallel_compose_pairs`: its own queue, keyed on pair names.

    ``visit`` names a pair and queues it on first sight, so ``pairs`` comes
    out in breadth-first discovery order.
    """
    shared = a.alphabet.events & b.alphabet.events
    initial_pair = (a.initial, b.initial)
    initial_name = encode_pair(*initial_pair)
    pairs: dict[str, tuple[str, str]] = {initial_name: initial_pair}
    transitions: set[Transition] = set()
    queue = deque([initial_name])

    def visit(pair: tuple[str, str]) -> str:
        name = encode_pair(*pair)
        if name not in pairs:
            pairs[name] = pair
            queue.append(name)
        return name

    while queue:
        name = queue.popleft()
        qa, qb = pairs[name]
        for label, qa2 in a.outgoing(qa):
            if label != EPSILON and label in shared:
                for qb2 in b.successors(qb, label):
                    transitions.add((name, label, visit((qa2, qb2))))
            else:
                transitions.add((name, label, visit((qa2, qb))))
        for label, qb2 in b.outgoing(qb):
            if label == EPSILON or label not in shared:
                transitions.add((name, label, visit((qa, qb2))))
    product = Automaton(
        states=frozenset(pairs),
        alphabet=merge_alphabets(a.alphabet, b.alphabet),
        transitions=frozenset(transitions),
        initial=initial_name,
        marked=frozenset(name for name, (qa, qb) in pairs.items() if qa in a.marked and qb in b.marked),
    )
    return product, pairs


def subset_construction_by_names(a: Automaton) -> tuple[Automaton, dict[str, frozenset[str]]]:
    """Reference for :func:`subset_construction`: subsets as sets of names.

    Recomputes the epsilon closure on every step and names each subset
    with :func:`encode_state_set` when it is reached; the mapping lists
    the subsets in breadth-first discovery order, labels tried in sorted
    order.
    """
    initial_set = unobservable_reach(a, {a.initial})
    initial_name = encode_state_set(initial_set)
    members: dict[str, frozenset[str]] = {initial_name: initial_set}
    labels = sorted({label for _, label, _ in a.transitions if label != EPSILON})

    def expand(name: str) -> list[tuple[str, str]]:
        out = []
        for label in labels:
            target = _step(a, members[name], label)
            if target:
                target_name = encode_state_set(target)
                members.setdefault(target_name, target)
                out.append((label, target_name))
        return out

    transitions = frozenset(
        (name, label, target)
        for name, _, successors, _ in breadth_first(initial_name, expand)
        for label, target in successors
    )
    observer = Automaton(
        states=frozenset(members),
        alphabet=a.alphabet,
        transitions=transitions,
        initial=initial_name,
        marked=frozenset(name for name, content in members.items() if content & a.marked),
    )
    return observer, members


def longest_marked_word_by_closure(a: Automaton) -> int | None:
    """Reference for :func:`marked_word_length_bound`: Floyd-Warshall longest paths.

    Closes the trimmed graph's longest-path matrix over all state pairs
    (epsilon edges weigh 0); a positive diagonal entry is a cycle reading
    a symbol, so the marked language is infinite.
    """
    backward: dict[str, list[tuple[str, str]]] = {}
    for src, label, dst in a.transitions:
        backward.setdefault(dst, []).append((label, src))
    relevant = sorted(_reachable(_adjacency(a), {a.initial}) & _reachable(backward, a.marked & a.states))
    if not relevant or not (frozenset(relevant) & a.marked):
        return 0
    index = {s: i for i, s in enumerate(relevant)}
    n = len(relevant)
    neg = float("-inf")
    dist = [[neg] * n for _ in range(n)]
    for src, label, dst in a.transitions:
        if src in index and dst in index:
            i, j = index[src], index[dst]
            dist[i][j] = max(dist[i][j], 0 if label == EPSILON else 1)
    for k in range(n):
        for i in range(n):
            if dist[i][k] == neg:
                continue
            for j in range(n):
                if dist[k][j] != neg and dist[i][k] + dist[k][j] > dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    if any(dist[i][i] >= 1 for i in range(n)):
        return None
    if a.initial not in index:
        return 0
    i0 = index[a.initial]
    best = 0
    for m in a.marked:
        if m in index and m != a.initial and dist[i0][index[m]] != neg:
            best = max(best, int(dist[i0][index[m]]))
    return best


def diamond_by_replacement(g: Automaton, policy: SensorAttackPolicy) -> DiamondAutomaton:
    """Reference for :func:`build_g_diamond`: one :func:`replace_transition` per entry.

    Rebuilds the whole automaton for every policy entry, so it is
    quadratic in the number of entries.
    """
    ensure_valid_policy(g, policy)
    current = g
    provenance: dict[str, tuple[Transition, str]] = {}
    for i, (tr, f) in enumerate(policy.sorted_entries()):
        prefix = f"tr{i}"
        current = replace_transition(current, tr, f, prefix=prefix)
        for s in f.states:
            provenance[f"{prefix}/{s}"] = (tr, s)
    diamond = Automaton(
        states=current.states,
        alphabet=current.alphabet,
        transitions=current.transitions,
        initial=current.initial,
        marked=g.states,
    )
    return DiamondAutomaton(
        automaton=diamond,
        original_states=g.states,
        injected_states=diamond.states - g.states,
        provenance=provenance,
    )


def _observation_cap(steps_bound: int, policy: SensorAttackPolicy) -> int:
    """Length cap for enumerating observations of strings with ``steps_bound`` events.

    Exact for finite attack languages; infinite ones are sampled up to
    twice their automaton's state count per step.
    """
    per_step = 1
    for _, f in policy.sorted_entries():
        bound = marked_word_length_bound(f)
        per_step = max(per_step, 2 * len(f.states) if bound is None else bound)
    return steps_bound * per_step


def observability_by_enumeration(
    g: Automaton, h: Automaton, policy: SensorAttackPolicy, depth: int
) -> Verdict:
    """Reference for :func:`check_ca_observability_bounded`, string by string.

    Walks every string of the safety language up to ``depth`` events,
    enumerates its attacked observations with :func:`phi_by_concatenation`
    (up to :func:`_observation_cap`) and replays each one through the observer.
    Agrees with the library check whenever the corruption languages are
    finite.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    ensure_deterministic(g)
    if not is_subautomaton_by_filter(h, g):
        raise InputError("the specification must be a sub-automaton of the plant")
    restricted, _ = policy.restricted_to(h)
    ensure_valid_policy(h, restricted)
    observer = build_ca_observer(h, restricted)
    obs_cap = _observation_cap(depth, restricted)

    disabled_cache: dict[str, frozenset[str]] = {}

    def disabled_for(observer_state: str) -> frozenset[str]:
        if observer_state not in disabled_cache:
            estimate = observer.plant_projection(observer_state)
            disabled_cache[observer_state] = disabled_set(estimate, g, h.states)
        return disabled_cache[observer_state]

    frontier: list[tuple[str, Word]] = [(h.initial, ())]
    for _ in range(depth):
        nxt: list[tuple[str, Word]] = []
        for q, s in frontier:
            phi = None
            for event, dst in h.outgoing(q):
                if phi is None:
                    phi = phi_by_concatenation(policy_steps(s, h, restricted), depth=obs_cap)
                ok = False
                for t in phi.strings:
                    x = observer.state_for(t)
                    if x is not None and event not in disabled_for(x):
                        ok = True
                        break
                if not ok:
                    return Verdict(
                        status="fails",
                        counterexample=Counterexample(
                            string=s,
                            event=event,
                            witness="every feasible observation yields an estimate that must disable the event",
                        ),
                        depth=depth,
                    )
                nxt.append((dst, s + (event,)))
        frontier = nxt
        if not frontier:
            break
    return Verdict(status="holds-to-depth", depth=depth)


def brute_force_large_language(
    g: Automaton,
    supervisor,
    policy: SensorAttackPolicy,
    depth: int,
    actuator_attackable: Iterable[str] | None = None,
) -> frozenset[Word]:
    """Literal evaluation of the large-language recursion, up to ``depth`` events.

    Exponential; intended as an independent cross-check of
    :func:`large_language_automaton` on small models.  Observations are
    enumerated exactly for finite attack languages and sampled up to a
    documented cap otherwise, so prefer acyclic corruption automata when
    exactness matters.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    ensure_deterministic(g)
    ensure_valid_policy(g, policy)
    att = (
        frozenset(actuator_attackable)
        if actuator_attackable is not None
        else g.alphabet.actuator_attackable
    )
    free = g.alphabet.uncontrollable | att
    observable = g.alphabet.observable
    obs_cap = _observation_cap(depth, policy)

    control_cache: dict[Word, frozenset[str]] = {}

    def control(t: Word) -> frozenset[str]:
        if t not in control_cache:
            control_cache[t] = supervisor.control_for(t)
        return control_cache[t]

    fragment_cache: dict[tuple[Transition, int], frozenset[Word]] = {}

    def fragments(tr: Transition, budget: int) -> frozenset[Word]:
        f = policy.language_automaton(tr)
        if f is None:
            if tr[1] not in observable:
                return frozenset({()})
            return frozenset({(tr[1],)}) if budget >= 1 else frozenset()
        key = (tr, budget)
        if key not in fragment_cache:
            fragment_cache[key] = marked_words(f, budget)
        return fragment_cache[key]

    # Per string, carry the plant state and the observation set built by the
    # per-step concatenation that defines the corrupted-observation map.
    accepted: set[Word] = {()}
    frontier: dict[Word, tuple[str, frozenset[Word]]] = {(): (g.initial, frozenset({()}))}
    for _ in range(depth):
        nxt: dict[Word, tuple[str, frozenset[Word]]] = {}
        for s, (q, phi) in frontier.items():
            for event, dst in g.outgoing(q):
                if event not in free and not any(event in control(t) for t in phi):
                    continue
                tr = (q, event, dst)
                extended = frozenset(
                    t + u for t in phi for u in fragments(tr, obs_cap - len(t))
                )
                nxt[s + (event,)] = (dst, extended)
        frontier = nxt
        if not frontier:
            break
        accepted.update(frontier)
    return frozenset(accepted)


class _NameSetStep:
    """Per-plant-transition step of a frozenset of observer-state names.

    An attacked transition steps each state to everything some corruption
    word drives it to (product reachability with the corruption automaton),
    an unattacked one by the event's projection; memoised per
    (transition, state) and unioned member by member.
    """

    def __init__(self, observer: Automaton, policy: SensorAttackPolicy, observable: frozenset[str]):
        self.observer = observer
        self.policy = policy
        self.observable = observable
        self._memo: dict[tuple[Transition, str], frozenset[str]] = {}

    def advance(self, tr: Transition, tracked: frozenset[str]) -> frozenset[str]:
        for w in tracked:
            if (tr, w) not in self._memo:
                self._memo[tr, w] = self._compute(tr, w)
        return frozenset().union(*(self._memo[tr, w] for w in tracked))

    def _compute(self, tr: Transition, w: str) -> frozenset[str]:
        f = self.policy.language_automaton(tr)
        if f is None:
            if tr[1] not in self.observable:
                return frozenset({w})
            nxt = self.observer.delta(w, tr[1])
            return frozenset({nxt}) if nxt is not None else frozenset()
        found = set()
        start = (f.initial, w)
        seen = {start}
        stack = [start]
        while stack:
            fstate, x = stack.pop()
            if fstate in f.marked:
                found.add(x)
            for label, f2 in f.outgoing(fstate):
                x2 = self.observer.delta(x, label)
                if x2 is not None and (f2, x2) not in seen:
                    seen.add((f2, x2))
                    stack.append((f2, x2))
        return frozenset(found)


def supervisor_by_names(g: Automaton, h: Automaton, attack) -> tuple[Automaton, dict, dict, dict]:
    """Reference for a synthesized supervisor's named maps: observer, members, controls and estimates.

    The spec's CA-observer is :func:`subset_construction_by_names` of the
    erased diamond (on the spec composed with the attack context, for a
    strategy), and each state's control is derived from its estimate by
    :func:`disabled_set`.  All three maps list the states in the
    observer's discovery order.
    """
    if isinstance(attack, ObservationAttackStrategy):
        conversion = convert_observation_based(h, attack)
        a, policy = conversion.product, conversion.policy
        lift = lambda estimate: frozenset(conversion.pairs[x][0] for x in estimate)
    else:
        a, policy, lift = h, attack.restricted_to(h)[0], (lambda estimate: estimate)
    observer, members = subset_construction_by_names(erase_unobservable(build_g_diamond(a, policy)).automaton)
    estimates = {x: lift(content & a.states) for x, content in members.items()}
    sigma, uncontrollable = g.alphabet.events, g.alphabet.uncontrollable
    controls = {
        x: (sigma - disabled_set(estimate, g, h.states)) | uncontrollable if estimate else uncontrollable
        for x, estimate in estimates.items()
    }
    return observer, members, controls, estimates


def closed_loop_by_name_sets(g: Automaton, h, supervisor, attack, actuator_attackable=None):
    """Set-up spec, start node and ``expand`` of the attacked closed loop, on name sets.

    A node pairs a set-up plant state with the frozenset of supervisor-observer
    state names some attacked observation reaches; an event fires iff it is
    free or some tracked state's control enables it.
    """
    ensure_deterministic(g)
    g, h, policy = transition_based_setup(g, h, attack)
    att = frozenset(actuator_attackable) if actuator_attackable is not None else g.alphabet.actuator_attackable
    free = g.alphabet.uncontrollable | att
    controls = supervisor.controls
    step = _NameSetStep(supervisor.observer.observer, policy, g.alphabet.observable)

    def expand(node):
        q, tracked = node
        return [
            (event, (dst, step.advance((q, event, dst), tracked)))
            for event, dst in g.outgoing(q)
            if event in free or any(event in controls[w] for w in tracked)
        ]

    return h, (g.initial, frozenset({supervisor.observer.observer.initial})), expand


def large_language_by_name_sets(g: Automaton, supervisor, attack, actuator_attackable=None) -> LargeLanguageAutomaton:
    """The large-language product on :func:`closed_loop_by_name_sets`, states named ``q|{x,...}``."""
    _, start, expand = closed_loop_by_name_sets(g, None, supervisor, attack, actuator_attackable)
    names: dict = {}
    edges = []
    for node, _, successors, _ in breadth_first(start, expand):
        names[node] = node[0] + "|" + encode_state_set(node[1])
        edges.extend((node, event, succ) for event, succ in successors)
    automaton = Automaton(
        states=frozenset(names.values()),
        alphabet=g.alphabet,
        transitions=frozenset((names[src], event, names[dst]) for src, event, dst in edges),
        initial=names[start],
        marked=frozenset(names.values()),
    )
    return LargeLanguageAutomaton(automaton=automaton, components={name: node for node, name in names.items()})


def verify_by_name_sets(g: Automaton, h: Automaton, supervisor, attack, actuator_attackable=None) -> Verdict:
    """Large-language equality with the spec, walked on :func:`closed_loop_by_name_sets`."""
    h, start, loop = closed_loop_by_name_sets(g, h, supervisor, attack, actuator_attackable)

    def expand(pair):
        node, r = pair
        left = dict(loop(node))
        right = {event: h.delta(r, event) for event, _ in h.outgoing(r)}
        return [(event, (left.get(event), right.get(event))) for event in sorted(left.keys() | right.keys())]

    for _, _, successors, string in breadth_first((start, h.initial), expand):
        for event, (node, r) in successors:
            if node is None or r is None:
                side = (
                    "generated by the closed loop but outside the specification"
                    if r is None
                    else "in the specification but not generated by the closed loop"
                )
                return Verdict("fails", Counterexample(string(), event, side))
    return Verdict(status="holds")


def quotient_by_pairs(rows: list[dict[str, int]], controls) -> list[frozenset[int]]:
    """The coarsest partition of table states by control value and move row, by pairwise refinement.

    Start from every pair of states with equal controls, and drop a pair
    while some label moves exactly one of them, or moves both to a pair
    already dropped.  The classes come out ordered by their least member.
    """
    n = len(rows)
    labels = set().union(*rows)
    same = {(i, j) for i in range(n) for j in range(n) if controls[i] == controls[j]}

    def related(i, j, label):
        x, y = rows[i].get(label), rows[j].get(label)
        return x is None and y is None or x is not None and y is not None and (x, y) in same

    while True:
        kept = {(i, j) for i, j in same if all(related(i, j, label) for label in labels)}
        if kept == same:
            return sorted({frozenset(j for j in range(n) if (i, j) in same) for i in range(n)}, key=min)
        same = kept


def observability_by_name_sets(g: Automaton, h: Automaton, attack, depth: int | None = None) -> Verdict:
    """Estimate-consistent observability, walked on name sets, to saturation or to ``depth``.

    Fails at the first (string, event inside the spec) whose every tracked
    observer state's estimate must disable the event.
    """
    g, h, policy = transition_based_setup(g, h, attack)
    observer, _ = attacked_observer(h, policy)
    step = _NameSetStep(observer.observer, policy, h.alphabet.observable)

    def expand(node):
        q, tracked = node
        return [(event, (dst, step.advance((q, event, dst), tracked))) for event, dst in h.outgoing(q)]

    start = (h.initial, frozenset({observer.observer.initial}))
    for (_, tracked), level, successors, string in breadth_first(start, expand):
        if level == depth:
            break
        for event, _ in successors:
            if all(event in disabled_set(observer.plant_projection(x), g, h.states) for x in tracked):
                witness = "every feasible observation yields an estimate that must disable the event"
                return Verdict("fails", Counterexample(string(), event, witness), depth)
    return Verdict(status="holds" if depth is None else "holds-to-depth", depth=depth)


def _rewalk_setup(g, h, policy_or_strategy, actuator_attackable, attacker, max_steps):
    if max_steps < 0:
        raise InputError("max_steps must be nonnegative")
    g, h, policy = transition_based_setup(g, h, policy_or_strategy)
    ensure_deterministic(g)
    ensure_valid_policy(g, policy)
    att = tuple(sorted(actuator_attackable if actuator_attackable is not None else g.alphabet.actuator_attackable))
    cap = attacker.fragment_cap
    if cap is not None and attacker.kind != "none":
        problems = [
            f"fragment_cap {cap} admits no corruption word for transition {tr!r}"
            for tr, f in policy.sorted_entries()
            if not marked_words(f, cap)
        ]
        if problems:
            raise InputError("; ".join(problems))
    trace_cap = cap if cap is not None else max((2 * len(f.states) for _, f in policy.sorted_entries()), default=0)
    return g, h, policy, att, trace_cap


def _rewalk_fragments(f: Automaton, cap: int | None) -> list[Word]:
    words = marked_words(f, cap if cap is not None else 2 * len(f.states))
    return sorted(words, key=lambda w: (len(w), w))


def _rewalk_deliveries(issued: frozenset[str], att: tuple[str, ...]) -> list[frozenset[str]]:
    return sorted(delta_control(issued, att), key=lambda c: (len(c), tuple(sorted(c))))


def simulate_by_rewalk(
    g: Automaton,
    h: Automaton,
    supervisor,
    policy_or_strategy,
    actuator_attackable: Iterable[str] | None = None,
    attacker: AttackerStrategy = AttackerStrategy(),
    max_steps: int = 50,
    seed: int | None = None,
) -> Trace:
    """``simulate`` with the control asked for the whole observation at every step.

    Draws the same random numbers in the same order as ``simulate``;
    under the exhaustive attacker it searches breadth-first over (plant
    state, observation) and keeps the first run of the deepest level,
    which ``simulate`` rebuilds on the finite arena of plant and
    observer states without enumerating the levels.
    """
    g, h, policy, att, trace_cap = _rewalk_setup(g, h, policy_or_strategy, actuator_attackable, attacker, max_steps)
    cap = attacker.fragment_cap
    uncontrollable = g.alphabet.uncontrollable

    def make_trace(steps, seed):
        return Trace(
            steps=tuple(steps),
            safe=all(s.safe for s in steps) if steps else g.initial in h.states,
            attacker=attacker.kind,
            seed=seed,
            fragment_cap=trace_cap,
        )

    def enabled_at(q, received):
        return sorted(e for e, _ in g.outgoing(q) if e in uncontrollable or e in received)

    if attacker.kind == "exhaustive":
        frontier = [(g.initial, (), ())]
        seen = {(g.initial, ())}
        fallback: tuple = ()
        for _ in range(max_steps):
            nxt = []
            for q, observation, steps in frontier:
                issued = supervisor.control_for(observation)
                for received in _rewalk_deliveries(issued, att):
                    for event in enabled_at(q, received):
                        dst = g.delta(q, event)
                        f = policy.language_automaton((q, event, dst))
                        fragments = (
                            [natural_projection((event,), g.alphabet)] if f is None else _rewalk_fragments(f, cap)
                        )
                        for fragment in fragments:
                            step = TraceStep(
                                index=len(steps) + 1,
                                event=event,
                                issued=tuple(sorted(issued)),
                                received=tuple(sorted(received)),
                                fragment=fragment,
                                safe=dst in h.states and (not steps or steps[-1].safe),
                            )
                            if not step.safe:
                                return make_trace(steps + (step,), None)
                            key = (dst, observation + fragment)
                            if key not in seen:
                                seen.add(key)
                                nxt.append((dst, observation + fragment, steps + (step,)))
            if not nxt:
                break
            frontier = nxt
            if len(frontier[0][2]) > len(fallback):
                fallback = frontier[0][2]
        return make_trace(fallback, None)

    effective_seed = seed
    rng = random.Random(effective_seed)
    steps: list[TraceStep] = []
    q = g.initial
    observation: Word = ()
    safe = q in h.states
    for index in range(1, max_steps + 1):
        issued = supervisor.control_for(observation)
        received = issued if attacker.kind == "none" else rng.choice(_rewalk_deliveries(issued, att))
        enabled = enabled_at(q, received)
        if not enabled:
            break
        event = rng.choice(enabled)
        dst = g.delta(q, event)
        f = policy.language_automaton((q, event, dst))
        if f is None or attacker.kind == "none":
            fragment = natural_projection((event,), g.alphabet)
        else:
            fragment = rng.choice(_rewalk_fragments(f, cap))
        q = dst
        observation = observation + fragment
        safe = safe and q in h.states
        steps.append(TraceStep(index, event, tuple(sorted(issued)), tuple(sorted(received)), fragment, safe))
    return make_trace(steps, effective_seed)


def heights_by_ranking(edges: dict) -> dict:
    """Length of the longest walk from each arena node that reaches no cycle.

    Nodes that reach a cycle can walk forever and are left out.  A node
    without edges, a dead end or one at the step bound, has height 0.
    ``edges`` maps a node to its ``(label, child)`` pairs.
    """
    parents: dict = {}
    for node, out in edges.items():
        for _, child in out:
            parents.setdefault(child, []).append(node)
    waiting = {node: len(out) for node, out in edges.items()}
    ready = [node for node in edges.keys() | parents.keys() if not waiting.get(node)]
    height = {}
    while ready:
        node = ready.pop()
        height[node] = max((height[child] + 1 for _, child in edges.get(node, ())), default=0)
        for parent in parents.get(node, ()):
            waiting[parent] -= 1
            if not waiting[parent]:
                ready.append(parent)
    return height


def campaign_by_rewalk(
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
    """``run_campaign`` on :func:`simulate_by_rewalk`, with coverage from every prefix re-walked."""
    runs = 1 if attacker.kind == "exhaustive" else trials
    violating: list[Trace] = []
    visited: set = set()
    count = 0
    for i in range(runs):
        seed = None if base_seed is None else base_seed + i
        trace = simulate_by_rewalk(g, h, supervisor, policy_or_strategy, actuator_attackable, attacker, max_steps, seed)
        prefix: Word = ()
        visited.add(supervisor.observer_state_for(prefix))
        for step in trace.steps:
            prefix = prefix + step.fragment
            visited.add(supervisor.observer_state_for(prefix))
        if not trace.safe:
            count += 1
            if all(t.plant_string != trace.plant_string for t in violating):
                violating.append(trace)
    visited.discard(None)
    return CampaignReport(
        trials=runs,
        max_steps=max_steps,
        base_seed=base_seed,
        attacker=attacker.kind,
        violation_count=count,
        violating=tuple(violating),
        observer_states_visited=len(visited),
        observer_states_total=len(supervisor.observer.observer.states),
    )
