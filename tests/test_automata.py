"""Core automaton operations: validation, reachability, runs, determinization,
composition, projection and bounded language enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descat import (
    EPSILON,
    Automaton,
    EventAlphabet,
    InputError,
    accessible,
    bounded_marked_language,
    determinize,
    encode_state_set,
    enumerate_language,
    is_subautomaton,
    marked_word_length_bound,
    natural_projection,
    parallel_compose,
    parallel_compose_pairs,
    run,
    sub_automaton,
    subset_construction,
    unobservable_reach,
    validate,
)
from conftest import make_cycle, random_model
from oracles import (
    language_by_scan,
    language_by_word_frontier,
    product_by_queue,
    projected_marked_words,
    subset_construction_by_names,
)


def small_alphabet(**kwargs) -> EventAlphabet:
    base = dict(events={"a", "b"}, controllable={"a", "b"}, observable={"a", "b"})
    base.update(kwargs)
    return EventAlphabet(**{k: frozenset(v) for k, v in base.items()})


class TestAlphabet:
    def test_derived_sets(self):
        alpha = small_alphabet(controllable={"a"}, observable={"b"})
        assert alpha.uncontrollable == {"b"}
        assert alpha.unobservable == {"a"}

    def test_reserved_event_names_rejected(self):
        with pytest.raises(InputError):
            EventAlphabet(events={"eps"})
        with pytest.raises(InputError):
            EventAlphabet(events={EPSILON})

    def test_attackable_subsets_enforced(self):
        with pytest.raises(InputError):
            small_alphabet(sensor_attackable={"a"}, observable={"b"})
        with pytest.raises(InputError):
            small_alphabet(actuator_attackable={"a"}, controllable={"b"})


class TestValidate:
    def test_corpus_model_is_well_formed(self):
        assert validate(make_cycle().plant) == []

    def test_transition_to_unknown_state(self):
        alpha = small_alphabet()
        a = Automaton(states={"p"}, alphabet=alpha, transitions={("p", "a", "ghost")}, initial="p")
        problems = validate(a)
        assert len(problems) == 1
        assert "ghost" in problems[0]

    def test_unknown_initial_state(self):
        alpha = small_alphabet()
        a = Automaton(states={"p"}, alphabet=alpha, transitions=set(), initial="q")
        problems = validate(a)
        assert len(problems) == 1
        assert "initial" in problems[0]


class TestAccessible:
    def test_drops_unreachable_state(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"p", "q", "island"},
            alphabet=alpha,
            transitions={("p", "a", "q"), ("island", "b", "island")},
            initial="p",
        )
        trimmed = accessible(a)
        assert trimmed.states == {"p", "q"}
        assert trimmed.transitions == {("p", "a", "q")}

    def test_fully_reachable_model_unchanged(self):
        g = make_cycle().plant
        assert accessible(g) == g

    def test_unreachable_marked_state_cleared(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"p", "m"}, alphabet=alpha, transitions=set(), initial="p", marked={"m"}
        )
        assert accessible(a).marked == frozenset()

    def test_idempotent_and_language_preserving(self):
        rng = random.Random(11)
        for _ in range(20):
            g, _ = random_model(rng)
            once = accessible(g)
            assert accessible(once) == once
            assert enumerate_language(once, 5) == enumerate_language(g, 5)


class TestRun:
    def test_cycle_returns_to_start(self):
        g = make_cycle().plant
        assert run(g, ("alpha", "lambda", "mu")) == {"1"}

    def test_empty_word_is_closure_of_initial(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"p", "q"}, alphabet=alpha, transitions={("p", EPSILON, "q")}, initial="p"
        )
        assert run(a, ()) == {"p", "q"}

    def test_unknown_event_rejected(self):
        g = make_cycle().plant
        with pytest.raises(InputError):
            run(g, ("omega",))

    def test_word_outside_language_gives_empty_set(self):
        g = make_cycle().plant
        assert run(g, ("mu",)) == frozenset()


class TestUnobservableReach:
    def test_no_epsilon_is_identity(self):
        g = make_cycle().plant
        assert unobservable_reach(g, {"1", "2"}) == {"1", "2"}

    def test_chained_epsilon(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"1", "2", "3"},
            alphabet=alpha,
            transitions={("1", EPSILON, "2"), ("2", EPSILON, "3")},
            initial="1",
        )
        assert unobservable_reach(a, {"1"}) == {"1", "2", "3"}

    def test_epsilon_cycle_terminates(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"1", "2"},
            alphabet=alpha,
            transitions={("1", EPSILON, "2"), ("2", EPSILON, "1")},
            initial="1",
        )
        assert unobservable_reach(a, {"1"}) == {"1", "2"}

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_closure_operator_laws(self, data):
        n = data.draw(st.integers(2, 5))
        states = [str(i) for i in range(n)]
        edges = data.draw(
            st.sets(st.tuples(st.sampled_from(states), st.sampled_from(states)), max_size=8)
        )
        alpha = small_alphabet()
        a = Automaton(
            states=set(states),
            alphabet=alpha,
            transitions={(s, EPSILON, d) for s, d in edges},
            initial="0",
        )
        x = frozenset(data.draw(st.sets(st.sampled_from(states), max_size=n)))
        y = frozenset(data.draw(st.sets(st.sampled_from(states), max_size=n)))
        cx = unobservable_reach(a, x)
        assert x <= cx
        assert unobservable_reach(a, cx) == cx
        if x <= y:
            assert cx <= unobservable_reach(a, y)


class TestDeterminize:
    def test_deterministic_input_isomorphic_to_accessible_part(self):
        g = make_cycle().plant
        obs, members = subset_construction(g)
        assert obs.is_deterministic
        assert len(obs.states) == len(g.states)
        assert all(len(content) == 1 for content in members.values())

    def test_epsilon_to_marked_sink_collapses(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"p", "sink"},
            alphabet=alpha,
            transitions={("p", EPSILON, "sink")},
            initial="p",
            marked={"sink"},
        )
        obs = determinize(a)
        assert len(obs.states) == 1
        assert obs.marked == obs.states

    def test_canonical_state_names_are_sorted_sets(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"2", "10", "1"},
            alphabet=alpha,
            transitions={("1", "a", "2"), ("1", "a", "10")},
            initial="1",
        )
        obs = determinize(a)
        assert obs.initial == "{1}"
        assert encode_state_set({"2", "10"}) in obs.states

    def test_marked_language_preserved_under_projection(self):
        rng = random.Random(23)
        for _ in range(15):
            g, _ = random_model(rng)
            # relabel a random event to epsilon to exercise closure handling
            labels = sorted({t[1] for t in g.transitions})
            if labels:
                hidden = rng.choice(labels)
                g = Automaton(
                    states=g.states,
                    alphabet=g.alphabet,
                    transitions={
                        (s, EPSILON if l == hidden else l, d) for s, l, d in g.transitions
                    },
                    initial=g.initial,
                    marked=frozenset(rng.sample(sorted(g.states), k=len(g.states) // 2 or 1)),
                )
            obs = determinize(g)
            for d in (0, 2, 4):
                assert enumerate_language(obs, d, marked_only=True) == frozenset(
                    w for w in projected_marked_words(g, d)
                )


    def test_matches_the_name_based_oracle_on_random_automata(self):
        rng = random.Random(9091)
        # Names whose sorted order differs from numeric and from insertion order.
        pool = ["q9", "q10", "q1", "tr0/x", "tr0/f0", "tr10/a", "p", "P"]
        alphabet = small_alphabet(events={"a", "b", "c"}, observable={"a", "b", "c"})
        seen = {"epsilon cycle": 0, "nondeterministic": 0, "unreachable": 0, "marked": 0, "marked unreachable": 0}
        for _ in range(2000):
            states = rng.sample(pool, rng.randint(1, len(pool)))
            transitions = {
                (rng.choice(states), rng.choice(("a", "b", "c", EPSILON, EPSILON)), rng.choice(states))
                for _ in range(rng.randint(0, 2 * len(states)))
            }
            a = Automaton(
                states=states,
                alphabet=alphabet,
                transitions=transitions,
                initial=rng.choice(states),
                marked={q for q in states if rng.random() < 0.3},
            )
            reachable = accessible(a).states
            seen["epsilon cycle"] += any(
                label == EPSILON and src in unobservable_reach(a, {dst}) for src, label, dst in transitions
            )
            seen["nondeterministic"] += any(label != EPSILON and len(a.successors(src, label)) > 1
                                            for src, label, _ in transitions)
            seen["unreachable"] += reachable != a.states
            seen["marked"] += bool(a.marked & reachable)
            seen["marked unreachable"] += bool(a.marked - reachable)
            observer, members = subset_construction(a)
            expected_observer, expected_members = subset_construction_by_names(a)
            assert observer == expected_observer
            assert list(members.items()) == list(expected_members.items())
        assert min(seen.values()) >= 200, seen


class TestSubsetKernel:
    """The subset walk steps a subset label by label; its table must equal the walk that unions every member."""

    def test_matches_the_per_member_walk_on_random_automata(self):
        from descat.automata import _determinize, _subset_moves
        from oracles import subset_walk_by_members

        rng = random.Random(2020)
        pool = ["q9", "q10", "q1", "tr0/x", "tr0/f0", "tr10/a", "p", "P", "r"]
        alphabet = small_alphabet(events={"a", "b", "c"}, observable={"a", "b", "c"})
        seen = {"silent cycle": 0, "silent self-loop": 0, "labelled self-loop": 0, "part met twice": 0,
                "part on two labels": 0}
        for _ in range(1500):
            states = rng.sample(pool, rng.randint(1, len(pool)))
            transitions = {
                (rng.choice(states), rng.choice(("a", "b", "c", EPSILON, EPSILON)), rng.choice(states))
                for _ in range(rng.randint(0, 3 * len(states)))
            }
            a = Automaton(states, alphabet, transitions, rng.choice(states), {q for q in states if rng.random() < 0.3})
            table = _determinize(a.states, a.transitions, a.initial, a.marked, a.alphabet)
            masks, rows = subset_walk_by_members(a)
            assert table.masks == masks
            assert [list(row.items()) for row in table.rows] == [list(row.items()) for row in rows]
            seen["silent cycle"] += any(
                label == EPSILON and src != dst and src in unobservable_reach(a, {dst})
                for src, label, dst in transitions
            )
            seen["silent self-loop"] += any(label == EPSILON and src == dst for src, label, dst in transitions)
            seen["labelled self-loop"] += any(label != EPSILON and src == dst for src, label, dst in transitions)
            # Parts of two or more members, the ones the walk memoises per label.
            moves = _subset_moves(a.states, a.transitions, a.initial)[2]
            parts = [(label, mask & has) for mask in masks for label, has, _ in moves if (mask & has).bit_count() > 1]
            seen["part met twice"] += len(parts) > len(set(parts))
            labels_of: dict[int, set[str]] = {}
            for label, part in parts:
                labels_of.setdefault(part, set()).add(label)
            seen["part on two labels"] += any(len(labels) > 1 for labels in labels_of.values())
        assert min(seen.values()) >= 40, seen


class TestParallelCompose:
    def test_universal_single_state_is_identity(self):
        g = make_cycle().plant
        alpha = g.alphabet
        universal = Automaton(
            states={"u"},
            alphabet=alpha,
            transitions={("u", e, "u") for e in alpha.events},
            initial="u",
        )
        product, pairs = parallel_compose_pairs(g, universal)
        assert len(product.states) == len(g.states)
        assert {pairs[name][0] for name in product.states} == g.states
        assert enumerate_language(product, 6) == enumerate_language(g, 6)

    def test_state_count_bounded_by_product(self):
        rng = random.Random(5)
        for _ in range(15):
            a, _ = random_model(rng)
            b, _ = random_model(rng)
            product = parallel_compose(a, b)
            assert len(product.states) <= len(a.states) * len(b.states)

    def test_private_events_interleave(self):
        left = Automaton(
            states={"0", "1"},
            alphabet=EventAlphabet(events={"a", "x"}, observable={"a", "x"}),
            transitions={("0", "x", "1"), ("1", "a", "0")},
            initial="0",
        )
        right = Automaton(
            states={"r"},
            alphabet=EventAlphabet(events={"a"}, observable={"a"}),
            transitions={("r", "a", "r")},
            initial="r",
        )
        product = parallel_compose(left, right)
        assert ("x",) in enumerate_language(product, 2)
        assert ("x", "a") in enumerate_language(product, 2)
        assert ("a",) not in enumerate_language(product, 2)

    def test_matches_the_queue_oracle_on_random_pairs(self):
        """Same product and same pairs, in the same breadth-first order, as the replaced queue loop."""
        rng = random.Random(2718)
        seen = {"plant epsilon": 0, "context epsilon": 0, "private": 0, "nondeterministic sync": 0, "marked": 0}
        for _ in range(600):
            plant, _ = random_model(rng)
            if rng.random() < 0.5:
                # Silent moves in the plant, as after a substitution.
                plant = Automaton(
                    plant.states,
                    plant.alphabet,
                    plant.transitions | {(rng.choice(sorted(plant.states)), EPSILON, rng.choice(sorted(plant.states)))},
                    plant.initial,
                    {q for q in sorted(plant.states) if rng.random() < 0.5},
                )
            events = sorted(plant.alphabet.events)
            # The context shares some plant events and has private ones ("x", "y").
            labels = rng.sample(events, rng.randint(1, len(events))) + ["x", "y"][: rng.randint(0, 2)]
            states = [f"z{i}" for i in range(rng.randint(1, 4))]
            context = Automaton(
                states=states,
                alphabet=EventAlphabet(events=labels, observable=labels),
                transitions={
                    (rng.choice(states), rng.choice(labels + [EPSILON]), rng.choice(states))
                    for _ in range(rng.randint(0, 3 * len(states)))
                },
                initial="z0",
                marked={z for z in states if rng.random() < 0.5},
            )
            product, pairs = parallel_compose_pairs(plant, context)
            expected, expected_pairs = product_by_queue(plant, context)
            assert product == expected
            assert list(pairs.items()) == list(expected_pairs.items())
            shared = plant.alphabet.events & context.alphabet.events
            seen["plant epsilon"] += any(label == EPSILON for _, label, _ in plant.transitions)
            seen["context epsilon"] += any(label == EPSILON for _, label, _ in context.transitions)
            seen["private"] += any(label not in shared for _, label, _ in product.transitions)
            seen["nondeterministic sync"] += any(
                label in shared and len(context.successors(z, label)) > 1 for z, label, _ in context.transitions
            )
            seen["marked"] += bool(product.marked)
        assert min(seen.values()) >= 50, seen


class TestNaturalProjection:
    def test_all_observable_is_identity(self):
        g = make_cycle().plant
        word = ("alpha", "lambda", "mu")
        assert natural_projection(word, g.alphabet) == word

    def test_empty_word(self):
        assert natural_projection((), make_cycle().alphabet) == ()

    def test_erases_unobservables_in_order(self):
        alpha = EventAlphabet(events={"a", "u", "b"}, observable={"a", "b"})
        assert natural_projection(("u", "a", "u", "b", "u"), alpha) == ("a", "b")

    @given(st.lists(st.sampled_from(["a", "u", "b"]), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_filter(self, word):
        alpha = EventAlphabet(events={"a", "u", "b"}, observable={"a", "b"})
        assert natural_projection(word, alpha) == tuple(e for e in word if e != "u")


class TestEnumerateLanguage:
    def test_depth_zero(self):
        g = make_cycle().plant
        assert enumerate_language(g, 0) == {()}

    def test_corpus_depth_three(self):
        g = make_cycle().plant
        assert enumerate_language(g, 3) == {
            (),
            ("alpha",),
            ("alpha", "alpha"),
            ("alpha", "lambda"),
            ("alpha", "lambda", "mu"),
        }

    def test_monotone_in_depth(self):
        g = make_cycle().plant
        for d in range(5):
            assert enumerate_language(g, d) <= enumerate_language(g, d + 1)

    def test_agrees_with_membership_scan(self):
        rng = random.Random(37)
        for _ in range(10):
            g, _ = random_model(rng, max_states=4)
            assert enumerate_language(g, 4) == language_by_scan(g, 4)

    def test_a_deterministic_automaton_is_walked_as_it_is(self, monkeypatch):
        import descat.automata

        calls = []
        original = descat.automata.determinize
        monkeypatch.setattr(descat.automata, "determinize", lambda a: calls.append(a) or original(a))
        g = make_cycle().plant
        assert enumerate_language(g, 3) == language_by_scan(g, 3)
        assert calls == []
        silent = Automaton(g.states, g.alphabet, g.transitions | {(g.initial, EPSILON, g.initial)}, g.initial)
        assert enumerate_language(silent, 3) == enumerate_language(g, 3)
        assert calls == [silent]

    def test_matches_the_word_frontier_oracle_on_random_automata(self):
        rng = random.Random(4711)
        alphabet = small_alphabet(events={"a", "b", "c"}, observable={"a", "b", "c"})
        seen = {"epsilon cycle": 0, "nondeterministic": 0, "marked": 0, "unmarked": 0}
        for _ in range(2000):
            states = [str(i) for i in range(rng.randint(1, 6))]
            transitions = {
                (rng.choice(states), rng.choice(("a", "b", "c", EPSILON, EPSILON)), rng.choice(states))
                for _ in range(rng.randint(0, 2 * len(states)))
            }
            marked = {q for q in states if rng.random() < 0.3}
            a = Automaton(states, alphabet, transitions, rng.choice(states), marked)
            seen["epsilon cycle"] += any(
                label == EPSILON and src in unobservable_reach(a, {dst}) for src, label, dst in transitions
            )
            seen["nondeterministic"] += any(
                label != EPSILON and len(a.successors(src, label)) > 1 for src, label, _ in transitions
            )
            seen["marked" if marked else "unmarked"] += 1
            for depth in range(7):
                for marked_only in (False, True):
                    expected = language_by_word_frontier(a, depth, marked_only=marked_only)
                    assert enumerate_language(a, depth, marked_only=marked_only) == expected
        assert min(seen.values()) >= 200, seen


class TestSubAutomaton:
    def test_corpus_spec_is_subautomaton(self):
        model = make_cycle()
        assert is_subautomaton(model.spec, model.plant)

    def test_self_is_subautomaton(self):
        g = make_cycle().plant
        assert is_subautomaton(g, g)

    def test_renamed_state_is_not(self):
        model = make_cycle()
        renamed = Automaton(
            states={"one", "2", "3"},
            alphabet=model.alphabet,
            transitions={("one", "alpha", "2"), ("2", "lambda", "3")},
            initial="one",
        )
        assert not is_subautomaton(renamed, model.plant)

    def test_missing_induced_transition_is_not(self):
        model = make_cycle()
        pruned = Automaton(
            states={"1", "2", "3"},
            alphabet=model.alphabet,
            transitions={("1", "alpha", "2"), ("2", "lambda", "3")},
            initial="1",
        )
        assert not is_subautomaton(pruned, model.plant)

    def test_initial_must_be_safe(self):
        g = make_cycle().plant
        with pytest.raises(InputError):
            sub_automaton(g, {"2", "3"})

    def test_matches_the_filtering_definition_on_random_pairs(self):
        """Induced specs, and specs with a transition added, dropped or swapped, other marks or another initial."""
        from oracles import is_subautomaton_by_filter

        rng = random.Random(1701)
        outcomes: dict[tuple[str, bool], int] = {}
        for _ in range(600):
            g, _ = random_model(rng, max_states=8)
            g = Automaton(g.states, g.alphabet, g.transitions, g.initial, {q for q in g.states if rng.random() < 0.4})
            h = sub_automaton(g, {g.initial} | {q for q in sorted(g.states) if rng.random() < 0.7})
            states, transitions = sorted(h.states), sorted(h.transitions)
            absent = [
                (q, e, d) for q in states for e in sorted(g.alphabet.events) for d in states
                if (q, e, d) not in h.transitions
            ]
            leaving = sorted(t for t in g.transitions if t[0] in h.states and t[2] not in h.states)
            entering = sorted(t for t in g.transitions if t[0] not in h.states and t[2] in h.states)
            variants = {"induced": (h.transitions, h.marked, h.initial)}
            for kind, pool in (("extra", absent), ("leaving", leaving), ("entering", entering)):
                if pool:
                    variants[kind] = (h.transitions | {rng.choice(pool)}, h.marked, h.initial)
            if transitions:
                dropped = rng.choice(transitions)
                variants["missing"] = (h.transitions - {dropped}, h.marked, h.initial)
                # The same number of moves out of the same state, one of them not the plant's.
                instead = [t for t in absent if t[0] == dropped[0]]
                if instead:
                    variants["swapped"] = (h.transitions - {dropped} | {rng.choice(instead)}, h.marked, h.initial)
            variants["marks"] = (h.transitions, h.marked ^ {rng.choice(states)}, h.initial)
            if len(states) > 1:
                variants["initial"] = (h.transitions, h.marked, rng.choice([q for q in states if q != h.initial]))
            for kind, (kept, marked, initial) in variants.items():
                spec = Automaton(h.states, g.alphabet, kept, initial, marked)
                answer = is_subautomaton(spec, g)
                assert answer == is_subautomaton_by_filter(spec, g), kind
                outcomes[kind, answer] = outcomes.get((kind, answer), 0) + 1
        assert outcomes.get(("induced", True), 0) == 600
        for kind in ("extra", "leaving", "entering", "missing", "swapped", "marks", "initial"):
            assert outcomes.get((kind, False), 0) >= 100, outcomes


    def test_the_plant_and_spec_guard_keeps_its_answer_on_the_spec_per_plant(self, monkeypatch):
        import descat.automata
        from descat.automata import ensure_plant_and_spec

        calls = []
        check = descat.automata.is_subautomaton
        monkeypatch.setattr(descat.automata, "is_subautomaton", lambda h, g: calls.append(g) or check(h, g))
        model = make_cycle()
        g, h = model.plant, model.spec
        twin = Automaton(g.states, g.alphabet, g.transitions, g.initial, g.marked)
        # A plant without one of the spec's moves.
        other = Automaton(g.states, g.alphabet, g.transitions - {sorted(h.transitions)[0]}, g.initial, g.marked)
        for plant in (g, g, twin, other, other, g):
            if plant is other:
                with pytest.raises(InputError, match="must be a sub-automaton of the plant"):
                    ensure_plant_and_spec(plant, h)
            else:
                ensure_plant_and_spec(plant, h)
        assert calls == [g, other]
        with pytest.raises(InputError, match="identical alphabets"):
            ensure_plant_and_spec(Automaton(g.states, small_alphabet(), (), g.initial), h)


class TestClosures:
    def test_match_one_search_per_state_on_random_silent_graphs(self):
        from descat.automata import _closures
        from oracles import closures_by_search

        rng = random.Random(1702)
        seen = {"cycle": 0, "self-loop": 0, "no silent move": 0, "two cycles": 0}
        for _ in range(2000):
            n = rng.randint(1, 14)
            silent = [sorted({rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 2, 3)))}) for _ in range(n)]
            closures = _closures(silent)
            assert closures == closures_by_search(silent)
            seen["self-loop"] += any(v in out for v, out in enumerate(silent))
            seen["no silent move"] += any(not out for out in silent)
            mutual = [v for v in range(n) if any(closures[w] >> v & 1 for w in silent[v] if w != v)]
            seen["cycle"] += bool(mutual)
            seen["two cycles"] += len({closures[v] for v in mutual}) > 1
        assert min(seen.values()) >= 50, seen

    def test_a_long_silent_cycle_needs_no_recursion(self):
        from descat.automata import _closures

        n = 5000
        silent = [[(v + 1) % n] for v in range(n)] + [[0]]
        assert _closures(silent) == [(1 << n) - 1] * n + [(1 << (n + 1)) - 1]


class TestMarkedWordLengthBound:
    def test_finite_language(self):
        model = make_cycle()
        assert marked_word_length_bound(model.f1) == 2
        assert marked_word_length_bound(model.f2) == 1

    def test_cycle_on_accepting_path_is_infinite(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"0"}, alphabet=alpha, transitions={("0", "a", "0")}, initial="0", marked={"0"}
        )
        assert marked_word_length_bound(a) is None

    def test_epsilon_cycle_stays_finite(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"0", "1", "2"},
            alphabet=alpha,
            transitions={("0", EPSILON, "1"), ("1", EPSILON, "0"), ("1", "a", "2")},
            initial="0",
            marked={"2"},
        )
        assert marked_word_length_bound(a) == 1

    def test_cycle_feeding_marked_state_is_infinite(self):
        alpha = small_alphabet()
        a = Automaton(
            states={"0", "1"},
            alphabet=alpha,
            transitions={("0", EPSILON, "1"), ("1", EPSILON, "0"), ("0", "a", "1")},
            initial="0",
            marked={"1"},
        )
        assert marked_word_length_bound(a) is None

    def test_matches_the_floyd_warshall_oracle_on_random_automata(self):
        from oracles import longest_marked_word_by_closure

        rng = random.Random(919)
        alpha = small_alphabet()
        outcomes = {"infinite": 0, "empty": 0, "finite": 0, "epsilon cycle": 0}
        for _ in range(3000):
            states = [str(i) for i in range(rng.randint(1, 7))]
            transitions = {
                (rng.choice(states), rng.choice(("a", "b", EPSILON, EPSILON)), rng.choice(states))
                for _ in range(rng.randint(0, 2 * len(states)))
            }
            a = Automaton(
                states=frozenset(states),
                alphabet=alpha,
                transitions=frozenset(transitions),
                initial="0",
                marked=frozenset(s for s in states if rng.random() < 0.3),
            )
            bound = marked_word_length_bound(a)
            assert bound == longest_marked_word_by_closure(a)
            if bound is None:
                outcomes["infinite"] += 1
            else:
                words = bounded_marked_language(a, bound)
                assert max(map(len, words), default=0) == bound
                outcomes["finite" if words else "empty"] += 1
            eps = {(s, d) for s, label, d in transitions if label == EPSILON}
            outcomes["epsilon cycle"] += any((d, s) in eps or s == d for s, d in eps)
        assert min(outcomes.values()) >= 100, outcomes
