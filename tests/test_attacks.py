"""Attack semantics: corruption images, actuator-attacked controls and the
conversion of observation-based attacks to transition-based ones."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descat import (
    EPSILON,
    Automaton,
    EventAlphabet,
    InputError,
    ObservationAttackStrategy,
    PreconditionError,
    SensorAttackPolicy,
    bounded_marked_language,
    convert_observation_based,
    delta_control,
    enumerate_language,
    natural_projection,
    phi_enumerate,
    phi_omega,
    theta_automaton,
    sub_automaton,
    validate_policy,
    validate_strategy,
)
from descat.attacks import actuator_attack_set, check_projection_containment
from conftest import make_cycle, make_cycle_strategy, random_model, random_strategy
from oracles import (
    accepts,
    containment_by_search,
    language_by_word_frontier,
    omega_steps,
    phi_by_concatenation,
    policy_steps,
    shortest_uncovered_observation,
    strategy_problems_two_pass,
    theta_by_chain,
)

W = lambda text: tuple(text.split())


class TestDeltaControl:
    def test_corpus_expansion_has_four_controls(self):
        out = delta_control({"alpha", "lambda", "mu"}, {"alpha", "beta"})
        assert out == {
            frozenset({"alpha", "lambda", "mu"}),
            frozenset({"alpha", "beta", "lambda", "mu"}),
            frozenset({"lambda", "mu"}),
            frozenset({"beta", "lambda", "mu"}),
        }

    def test_no_attackable_actuators_is_identity(self):
        assert delta_control({"a", "b"}, set()) == {frozenset({"a", "b"})}

    def test_empty_control_expands_over_attackable(self):
        assert delta_control(set(), {"b"}) == {frozenset(), frozenset({"b"})}

    @given(
        control=st.sets(st.sampled_from("abcdef"), max_size=6),
        attackable=st.sets(st.sampled_from("abcd"), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_algebraic_laws(self, control, attackable):
        out = delta_control(control, attackable)
        control, attackable = frozenset(control), frozenset(attackable)
        assert len(out) == 2 ** len(attackable)
        assert control in out
        for delivered in out:
            assert control - attackable <= delivered <= control | attackable


class TestActuatorAttackSet:
    """The one place an ``actuator_attackable`` override is resolved rejects events outside the alphabet."""

    def test_an_unknown_event_is_an_input_error(self):
        alphabet = make_cycle().alphabet
        for given in (["zeta"], ["beta", "zeta", "eta"], iter(["zeta"])):
            with pytest.raises(InputError, match=r"^unknown event 'zeta'$"):
                actuator_attack_set(alphabet, given)

    def test_every_entry_point_rejects_an_unknown_event(self):
        from descat import (
            check_ca_controllability,
            large_language_automaton,
            run_campaign,
            simulate,
            synthesize_ca_supervisor,
            verify_large_language_equals,
        )

        model = make_cycle(actuator_attackable=("beta",))
        g, h, policy = model.plant, model.spec, model.policy
        sup = synthesize_ca_supervisor(g, h, policy)
        calls = [
            lambda att: check_ca_controllability(g, h, att),
            lambda att: verify_large_language_equals(g, h, sup, policy, att),
            lambda att: large_language_automaton(g, sup, policy, att),
            lambda att: simulate(g, h, sup, policy, actuator_attackable=att, max_steps=3),
            lambda att: run_campaign(g, h, sup, policy, actuator_attackable=att, trials=2, max_steps=3),
        ]
        for call in calls:
            call({"beta"})
            with pytest.raises(InputError, match=r"^unknown event 'zeta'$"):
                call({"zeta"})


class TestPolicyValidation:
    def test_corpus_policy_valid(self):
        model = make_cycle()
        assert validate_policy(model.plant, model.policy) == []

    def test_uncovered_attackable_transition(self):
        model = make_cycle()
        partial = SensorAttackPolicy.from_transitions(
            {("2", "lambda", "3"): model.f1}
        )
        problems = validate_policy(model.plant, partial)
        assert any("('3', 'mu', '1')" in p for p in problems)

    def test_unknown_transition_key(self):
        model = make_cycle()
        bogus = SensorAttackPolicy.from_transitions(
            {**model.policy.entries, ("9", "lambda", "9"): model.f1}
        )
        assert any("does not exist" in p for p in validate_policy(model.plant, bogus))

    def test_empty_corruption_language_rejected(self):
        model = make_cycle()
        dead = Automaton(
            states={"X"}, alphabet=model.alphabet, transitions=set(), initial="X"
        )
        policy = SensorAttackPolicy.from_transitions(
            {**model.policy.entries, ("2", "lambda", "3"): dead}
        )
        assert any("empty corruption language" in p for p in validate_policy(model.plant, policy))

    @pytest.mark.parametrize("reachable_mark", [True, False])
    def test_sixteen_state_automaton_validates_fast(self, reachable_mark):
        """Emptiness is a reachability test, not an enumeration of every word up to the state count."""
        import time

        model = make_cycle(("beta",))
        n = 16
        states = [f"s{i}" for i in range(n)]
        transitions = {
            (states[i], event, states[(i + k) % (n - 1)])
            for i in range(n - 1)
            for k, event in enumerate(("alpha", "lambda", "mu"))
        }
        if reachable_mark:
            transitions.add((states[n - 2], "mu", states[n - 1]))
        f = Automaton(
            states=frozenset(states), alphabet=model.alphabet, transitions=transitions,
            initial=states[0], marked={states[n - 1]},
        )
        policy = SensorAttackPolicy.from_transitions({tr: f for tr in model.policy.entries})
        start = time.perf_counter()
        problems = validate_policy(model.plant, policy)
        assert time.perf_counter() - start < 1.0
        expected = [] if reachable_mark else [
            f"attack automaton for {tr!r} has an empty corruption language" for tr in sorted(model.policy.entries)
        ]
        assert problems == expected

    def test_emptiness_matches_bounded_enumeration(self):
        """On valid automata the reachability test flags exactly what enumerating up to |states| did."""
        model = make_cycle(("beta",))
        labels = ("alpha", "lambda", "mu", EPSILON)
        rng = random.Random(404)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            states = [f"s{i}" for i in range(rng.randint(1, 6))]
            f = Automaton(
                states=frozenset(states),
                alphabet=model.alphabet,
                transitions={
                    (rng.choice(states), rng.choice(labels), rng.choice(states)) for _ in range(rng.randint(0, 6))
                },
                initial=states[0],
                marked={s for s in states if rng.random() < 0.2},
            )
            empty = not bounded_marked_language(f, len(f.states))
            outcomes[empty] += 1
            policy = SensorAttackPolicy.from_transitions({("2", "lambda", "3"): f, ("3", "mu", "1"): model.f2})
            flagged = any("empty corruption language" in p for p in validate_policy(model.plant, policy))
            assert flagged == empty
        assert min(outcomes.values()) >= 30

    def test_shared_invalid_automaton_reported_per_use(self, cycle_strategy):
        model = make_cycle(("beta",))
        bad = Automaton(
            states={"X"}, alphabet=model.alphabet, transitions={("X", "nope", "Y")}, initial="X"
        )
        defects = [
            ": transition ('X', 'nope', 'Y') enters unknown state 'Y'",
            ": transition ('X', 'nope', 'Y') uses undeclared event 'nope'",
        ]
        policy = SensorAttackPolicy.from_transitions({tr: bad for tr in model.policy.entries})
        expected = []
        for tr in (("2", "lambda", "3"), ("3", "mu", "1")):
            head = f"attack automaton for {tr!r}"
            expected += [head + d for d in defects] + [
                head + ": transition label 'nope' is not an observable event",
                head + " has an empty corruption language",
            ]
        assert validate_policy(model.plant, policy) == expected
        strategy = ObservationAttackStrategy(sa=cycle_strategy.sa, omega={k: bad for k in cycle_strategy.omega})
        expected = []
        for z, event in (("z2", "lambda"), ("z3", "mu")):
            head = f"corruption automaton for ({z!r}, {event!r})"
            expected += [head + d for d in defects] + [
                head + ": label 'nope' is not observable",
                head + " has an empty language",
            ]
        assert validate_strategy(model.plant, strategy) == expected

    def test_uniform_expansion_covers_every_matching_transition(self):
        model = make_cycle()
        f = model.f2
        policy = SensorAttackPolicy.uniform(model.plant, {"lambda": f, "mu": f})
        assert set(policy.entries) == {("2", "lambda", "3"), ("3", "mu", "1")}
        override = SensorAttackPolicy.uniform(
            model.plant, {"lambda": f, "mu": f}, overrides={("2", "lambda", "3"): model.f1}
        )
        assert override.entries[("2", "lambda", "3")] == model.f1


class TestTheta:
    def test_corpus_string_alpha_lambda(self, cycle):
        theta = theta_automaton(W("alpha lambda"), cycle.plant, cycle.policy)
        words = bounded_marked_language(theta, 6)
        assert words == {W("alpha"), W("alpha lambda"), W("alpha lambda mu")}

    def test_unattacked_string_is_singleton(self, cycle):
        theta = theta_automaton(W("alpha"), cycle.plant, cycle.policy)
        assert bounded_marked_language(theta, 4) == {W("alpha")}

    def test_string_outside_plant_rejected(self, cycle):
        with pytest.raises(InputError):
            theta_automaton(W("mu"), cycle.plant, cycle.policy)

    def test_matches_the_chain_oracle(self, cycle):
        for word in sorted(language_by_word_frontier(cycle.plant, 6)):
            assert theta_automaton(word, cycle.plant, cycle.policy) == theta_by_chain(word, cycle.plant, cycle.policy)
        rng = random.Random(77)
        for i in range(100):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            for word in sorted(language_by_word_frontier(g, 3)):
                assert theta_automaton(word, g, policy) == theta_by_chain(word, g, policy)


class TestPhi:
    def test_corpus_string_alpha_lambda_mu(self, cycle):
        phi = phi_enumerate(W("alpha lambda mu"), cycle.plant, cycle.policy)
        assert phi.strings == {
            W("alpha mu"),
            W("alpha beta"),
            W("alpha lambda mu"),
            W("alpha lambda beta"),
            W("alpha lambda mu mu"),
            W("alpha lambda mu beta"),
        }
        assert not phi.truncated

    def test_empty_string(self, cycle):
        phi = phi_enumerate((), cycle.plant, cycle.policy)
        assert phi.strings == {()}

    def test_no_attacks_degenerates_to_projection(self):
        from descat import Automaton, EventAlphabet

        rng = random.Random(3)
        for _ in range(10):
            g, _ = random_model(rng)
            unattacked_alphabet = EventAlphabet(
                events=g.alphabet.events,
                controllable=g.alphabet.controllable,
                observable=g.alphabet.observable,
            )
            g = Automaton(
                states=g.states,
                alphabet=unattacked_alphabet,
                transitions=g.transitions,
                initial=g.initial,
            )
            empty = SensorAttackPolicy.empty()
            for word in sorted(enumerate_language(g, 4)):
                phi = phi_enumerate(word, g, empty)
                assert phi.strings == {natural_projection(word, g.alphabet)}

    def test_matches_projected_theta_language(self, cycle):
        for word in sorted(enumerate_language(cycle.plant, 6)):
            phi = phi_enumerate(word, cycle.plant, cycle.policy)
            theta = theta_automaton(word, cycle.plant, cycle.policy)
            projected = {
                natural_projection(w, cycle.alphabet)
                for w in bounded_marked_language(theta, phi.depth)
            }
            assert phi.strings == projected

    def test_infinite_attack_language_needs_depth(self, cycle):
        loop = Automaton(
            states={"L"},
            alphabet=cycle.alphabet,
            transitions={("L", "mu", "L")},
            initial="L",
            marked={"L"},
        )
        policy = SensorAttackPolicy.from_transitions(
            {**cycle.policy.entries, ("3", "mu", "1"): loop}
        )
        with pytest.raises(InputError):
            phi_enumerate(W("alpha lambda mu"), cycle.plant, policy)
        bounded = phi_enumerate(W("alpha lambda mu"), cycle.plant, policy, depth=4)
        assert bounded.truncated
        assert W("alpha lambda mu mu") in bounded.strings
        assert all(len(t) <= 4 for t in bounded.strings)


class TestConcatenationOracle:
    """phi_enumerate and phi_omega against the per-step concatenation they replaced."""

    @staticmethod
    def outcome(sample):
        try:
            sample = sample()
        except InputError as error:
            return str(error)
        return sample.strings, sample.depth, sample.truncated

    def test_matches_on_random_models_and_strategies(self):
        rng = random.Random(4242)
        seen = {"infinite": 0, "truncated": 0, "exact": 0, "omega": 0}
        for i in range(300):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            strategy = random_strategy(rng, g)
            for word in sorted(language_by_word_frontier(g, 3)):
                observation = natural_projection(word, g.alphabet)
                for depth in (None, 3, 5, 6):
                    got = self.outcome(lambda: phi_enumerate(word, g, policy, depth))
                    assert got == self.outcome(lambda: phi_by_concatenation(policy_steps(word, g, policy), depth))
                    seen["infinite" if isinstance(got, str) else "truncated" if got[2] else "exact"] += 1
                    if strategy is not None:
                        got = self.outcome(lambda: phi_omega(observation, strategy, g.alphabet, depth))
                        steps = omega_steps(observation, strategy, g.alphabet)
                        assert got == self.outcome(lambda: phi_by_concatenation(steps, depth))
                        seen["omega"] += 1
        assert min(seen.values()) >= 300, seen


class TestPhiOmega:
    def test_invalid_corruption_automata_are_input_errors(self, cycle_beta, cycle_strategy):
        """Each automaton used is checked as validate_strategy checks it, in the order of use."""
        f1, f2 = cycle_beta.f1, cycle_beta.f2
        stray = Automaton(f1.states, f1.alphabet, f1.transitions | {("A", "lambda", "zz")}, "A", f1.marked | {"zz"})
        empty = Automaton(f2.states, f2.alphabet, f2.transitions, f2.initial, marked=set())
        strategy = ObservationAttackStrategy(sa=cycle_strategy.sa, omega={("z2", "lambda"): stray, ("z3", "mu"): empty})
        problems = validate_strategy(cycle_beta.plant, strategy)
        assert len(problems) == 3
        with pytest.raises(InputError) as error:
            phi_omega(W("alpha lambda mu"), strategy, cycle_beta.alphabet)
        assert str(error.value) == "invalid observation attack strategy: " + "; ".join(problems)
        with pytest.raises(InputError, match="invalid observation attack strategy: corruption automaton for .'z2'"):
            phi_omega(W("alpha lambda"), strategy, cycle_beta.alphabet, depth=3)
        assert phi_omega(W("alpha"), strategy, cycle_beta.alphabet).strings == {W("alpha")}

    def test_empty_observation(self, cycle_beta, cycle_strategy):
        sample = phi_omega((), cycle_strategy, cycle_beta.alphabet)
        assert sample.strings == {()}

    def test_recursion_expands_contextual_languages(self, cycle_beta, cycle_strategy):
        sample = phi_omega(W("alpha lambda mu"), cycle_strategy, cycle_beta.alphabet)
        expected = set()
        for mid in ((), W("lambda"), W("lambda mu")):
            for tail in (W("mu"), W("beta")):
                expected.add(W("alpha") + mid + tail)
        assert sample.strings == expected

    def test_identity_strategy_reproduces_observation(self, cycle_beta):
        alphabet = cycle_beta.alphabet
        sa = Automaton(
            states={"z"},
            alphabet=alphabet.observable_restriction(),
            transitions={("z", e, "z") for e in alphabet.observable},
            initial="z",
        )
        omega = {}
        for e in alphabet.sensor_attackable:
            omega[("z", e)] = Automaton(
                states={"i", "f"},
                alphabet=alphabet,
                transitions={("i", e, "f")},
                initial="i",
                marked={"f"},
            )
        from descat import ObservationAttackStrategy

        strategy = ObservationAttackStrategy(sa=sa, omega=omega)
        for word in (W("alpha"), W("alpha lambda"), W("alpha lambda mu alpha")):
            assert phi_omega(word, strategy, alphabet).strings == {word}


class TestConversion:
    def test_corpus_policy_keys_and_languages(self, cycle_beta, cycle_strategy):
        conv = convert_observation_based(cycle_beta.plant, cycle_strategy)
        assert set(conv.policy.entries) == {
            ("(2,z2)", "lambda", "(3,z3)"),
            ("(3,z3)", "mu", "(1,z5)"),
        }
        assert conv.policy.entries[("(2,z2)", "lambda", "(3,z3)")] == cycle_beta.f1
        assert conv.policy.entries[("(3,z3)", "mu", "(1,z5)")] == cycle_beta.f2

    def test_product_preserves_plant_language(self, cycle_beta, cycle_strategy):
        conv = convert_observation_based(cycle_beta.plant, cycle_strategy)
        for d in range(8):
            assert enumerate_language(conv.product, d) == enumerate_language(cycle_beta.plant, d)

    def test_pairing_matches_joint_walk(self, cycle_beta, cycle_strategy):
        conv = convert_observation_based(cycle_beta.plant, cycle_strategy)
        g, sa = cycle_beta.plant, cycle_strategy.sa
        for word in sorted(enumerate_language(g, 8)):
            q = g.initial
            for event in word:
                q = g.delta(q, event)
            z = sa.initial
            for event in natural_projection(word, g.alphabet):
                z = sa.delta(z, event)
            name = f"({q},{z})"
            assert conv.pairs[name] == (q, z)

    def test_single_state_context_reduces_to_uniform_policy(self, cycle_beta):
        alphabet = cycle_beta.alphabet
        sa = Automaton(
            states={"z"},
            alphabet=alphabet.observable_restriction(),
            transitions={("z", e, "z") for e in alphabet.observable},
            initial="z",
        )
        from descat import ObservationAttackStrategy

        strategy = ObservationAttackStrategy(
            sa=sa,
            omega={("z", "lambda"): cycle_beta.f1, ("z", "mu"): cycle_beta.f2},
        )
        conv = convert_observation_based(cycle_beta.plant, strategy)
        languages = {tr[1]: f for tr, f in conv.policy.entries.items()}
        assert languages == {"lambda": cycle_beta.f1, "mu": cycle_beta.f2}

    def test_unreachable_corruption_entries_are_ignored(self, cycle_beta, cycle_strategy):
        # (z4, mu) never occurs in the composition; declaring it is harmless
        extra = dict(cycle_strategy.omega)
        extra[("z4", "mu")] = cycle_beta.f2
        from descat import ObservationAttackStrategy, validate_strategy

        strategy = ObservationAttackStrategy(sa=cycle_strategy.sa, omega=extra)
        assert validate_strategy(cycle_beta.plant, strategy) == []
        conv = convert_observation_based(cycle_beta.plant, strategy)
        assert set(conv.policy.entries) == {
            ("(2,z2)", "lambda", "(3,z3)"),
            ("(3,z3)", "mu", "(1,z5)"),
        }

    def test_containment_failure_names_witness(self, cycle_beta, cycle_strategy):
        broken_sa = Automaton(
            states={"z1", "z2"},
            alphabet=cycle_beta.alphabet.observable_restriction(),
            transitions={("z1", "alpha", "z2")},
            initial="z1",
        )
        from descat import ObservationAttackStrategy

        strategy = ObservationAttackStrategy(sa=broken_sa, omega=dict(cycle_strategy.omega))
        with pytest.raises(PreconditionError) as err:
            convert_observation_based(cycle_beta.plant, strategy)
        assert "witness observation" in str(err.value)

    def test_nondeterministic_context_reported_not_raised(self, cycle_beta, cycle_strategy):
        from descat import ObservationAttackStrategy, validate_strategy

        nondet = Automaton(
            states={"z1", "z2"},
            alphabet=cycle_beta.alphabet.observable_restriction(),
            transitions={("z1", "alpha", "z1"), ("z1", "alpha", "z2")},
            initial="z1",
        )
        strategy = ObservationAttackStrategy(sa=nondet, omega=dict(cycle_strategy.omega))
        problems = validate_strategy(cycle_beta.plant, strategy)
        assert any("deterministic" in p for p in problems)

    def test_converted_images_match_omega_images(self, cycle_beta, cycle_strategy):
        conv = convert_observation_based(cycle_beta.plant, cycle_strategy)
        for word in sorted(enumerate_language(cycle_beta.plant, 8)):
            via_policy = phi_enumerate(word, conv.product, conv.policy, depth=16)
            observation = natural_projection(word, cycle_beta.alphabet)
            via_omega = phi_omega(observation, cycle_strategy, cycle_beta.alphabet, depth=16)
            assert via_policy.strings == via_omega.strings

    def test_converted_images_match_omega_images_on_random_models(self):
        from conftest import random_strategy

        rng = random.Random(515)
        checked = 0
        while checked < 8:
            g, _ = random_model(rng, acyclic_attacks=True)
            strategy = random_strategy(rng, g)
            if strategy is None:
                continue
            checked += 1
            conv = convert_observation_based(g, strategy)
            for word in sorted(enumerate_language(g, 5)):
                via_policy = phi_enumerate(word, conv.product, conv.policy, depth=12)
                observation = natural_projection(word, g.alphabet)
                via_omega = phi_omega(observation, strategy, g.alphabet, depth=12)
                assert via_policy.strings == via_omega.strings

    def test_conversion_composes_once(self, monkeypatch):
        import descat.attacks

        compose = descat.attacks.parallel_compose_pairs
        calls = []
        monkeypatch.setattr(
            descat.attacks, "parallel_compose_pairs", lambda a, b: calls.append(1) or compose(a, b)
        )
        model = make_cycle(("beta",))
        setups = [(model.plant, make_cycle_strategy(model))]
        rng = random.Random(616)
        while len(setups) < 10:
            g, _ = random_model(rng)
            strategy = random_strategy(rng, g)
            if strategy is not None:
                setups.append((g, strategy))
        for n, (g, strategy) in enumerate(setups, 1):
            convert_observation_based(g, strategy)
            assert len(calls) == n


class TestProjectionContainment:
    def test_witness_is_shortest_in_plant_events_not_in_observations(self):
        alphabet = EventAlphabet(
            events={"a", "b", "c", "u"}, observable={"a", "b", "c"}, controllable={"a", "b", "c", "u"}
        )
        g = Automaton(
            states={str(i) for i in range(7)},
            alphabet=alphabet,
            transitions={
                ("0", "b", "1"), ("1", "c", "2"),
                ("0", "u", "3"), ("3", "u", "4"), ("4", "u", "5"), ("5", "a", "6"),
            },
            initial="0",
        )
        sa = Automaton(
            states={"z0", "z1"},
            alphabet=alphabet.observable_restriction(),
            transitions={("z0", "b", "z1")},
            initial="z0",
        )
        assert check_projection_containment(g, sa) == W("b c")
        assert shortest_uncovered_observation(g, sa) == W("a")

    def test_matches_enumeration_on_random_models(self):
        rng = random.Random(717)
        outcomes = {"holds": 0, "fails": 0}
        while min(outcomes.values()) < 40:
            g, _ = random_model(rng)
            strategy = random_strategy(rng, g)
            if strategy is None:
                continue
            sa = strategy.sa
            kept = frozenset(t for t in sa.transitions if rng.random() < 0.7)
            broken = Automaton(states=sa.states, alphabet=sa.alphabet, transitions=kept, initial=sa.initial)
            for context in (sa, broken):
                witness = check_projection_containment(g, context)
                assert (witness is None) == (shortest_uncovered_observation(g, context) is None)
                outcomes["holds" if witness is None else "fails"] += 1
                if witness is None:
                    continue
                erased = Automaton(
                    states=g.states,
                    alphabet=g.alphabet,
                    transitions={(s, l if l in g.alphabet.observable else EPSILON, d) for s, l, d in g.transitions},
                    initial=g.initial,
                )
                assert accepts(erased, witness)
                assert not accepts(context, witness)
                assert all(accepts(context, witness[:k]) for k in range(len(witness)))


class TestOneComposition:
    """Validation and conversion read everything off one plant x context composition."""

    ALIEN = "the attack-context alphabet declares unobservable plant event"

    def test_context_declaring_an_unobservable_event_is_rejected(self):
        """Composed over its declared alphabet, such a context drops the plant's u moves,
        and the supervisor synthesized on that composition enabled a after u (unsafe state 4)."""
        from descat import simulate, synthesize_ca_supervisor, verify_large_language_equals

        alphabet = EventAlphabet(
            events={"a", "s", "u"}, controllable={"a"}, observable={"a", "s"}, sensor_attackable={"s"}
        )
        g = Automaton(
            states={"1", "2", "3", "4"},
            alphabet=alphabet,
            transitions={("1", "u", "2"), ("2", "a", "4"), ("1", "a", "3"), ("3", "s", "1")},
            initial="1",
        )
        h = sub_automaton(g, {"1", "2", "3"})
        sa = Automaton(
            states={"z0", "z1"}, alphabet=alphabet, transitions={("z0", "a", "z1"), ("z1", "s", "z0")}, initial="z0"
        )
        just_s = Automaton(
            states={"i", "f"}, alphabet=alphabet, transitions={("i", "s", "f")}, initial="i", marked={"f"}
        )
        omega = {("z1", "s"): just_s}
        strategy = ObservationAttackStrategy(sa=sa, omega=omega)
        assert validate_strategy(g, strategy) == [f"{self.ALIEN} 'u'"]
        observable_sa = Automaton(
            states=sa.states, alphabet=g.alphabet.observable_restriction(), transitions=sa.transitions, initial="z0"
        )
        sound = ObservationAttackStrategy(sa=observable_sa, omega=omega)
        assert validate_strategy(g, sound) == []
        supervisor = synthesize_ca_supervisor(g, h, sound)
        assert "a" not in supervisor.control_for(())
        for call in (
            lambda: synthesize_ca_supervisor(g, h, strategy),
            lambda: verify_large_language_equals(g, h, supervisor, strategy),
            lambda: simulate(g, h, supervisor, strategy, seed=0),
        ):
            with pytest.raises(PreconditionError, match=f"{self.ALIEN} 'u'"):
                call()

    def test_context_moving_on_an_undeclared_event_is_rejected(self):
        """a is observable but not declared by the context, so the composition lets the
        context move on a by itself and the product is nondeterministic."""
        alphabet = EventAlphabet(
            events={"a", "s"}, controllable={"a"}, observable={"a", "s"}, sensor_attackable={"s"}
        )
        g = Automaton(
            states={"1", "2"}, alphabet=alphabet, transitions={("1", "a", "2"), ("2", "s", "1")}, initial="1"
        )
        sa = Automaton(
            states={"z0", "z1"},
            alphabet=EventAlphabet(events={"s"}, observable={"s"}, sensor_attackable={"s"}),
            transitions={("z0", "a", "z1"), ("z1", "a", "z1"), ("z0", "s", "z0"), ("z1", "s", "z0")},
            initial="z0",
        )
        just_s = Automaton(
            states={"i", "f"}, alphabet=alphabet, transitions={("i", "s", "f")}, initial="i", marked={"f"}
        )
        strategy = ObservationAttackStrategy(sa=sa, omega={("z0", "s"): just_s, ("z1", "s"): just_s})
        expected = [
            f"attack-context automaton: transition ({z!r}, 'a', 'z1') uses undeclared event 'a'" for z in ("z0", "z1")
        ]
        assert validate_strategy(g, strategy) == expected
        assert strategy_problems_two_pass(g, strategy)[0] == expected
        with pytest.raises(PreconditionError, match="undeclared event 'a'"):
            convert_observation_based(g, strategy)

    def test_missing_corruption_language_is_reported_once_per_pair(self):
        alphabet = EventAlphabet(events={"s"}, observable={"s"}, sensor_attackable={"s"})
        g = Automaton(
            states={"1", "2"}, alphabet=alphabet, transitions={("1", "s", "2"), ("2", "s", "1")}, initial="1"
        )
        sa = Automaton(states={"z0"}, alphabet=alphabet, transitions={("z0", "s", "z0")}, initial="z0")
        strategy = ObservationAttackStrategy(sa=sa, omega={})
        expected = ["no corruption language for reachable context pair ('z0', 's')"]
        assert validate_strategy(g, strategy) == expected
        assert strategy_problems_two_pass(g, strategy)[0] == expected

    def test_a_failed_label_check_may_change_the_witness(self):
        """An undeclared label moves the context on its own in the composition, which
        the search-based oracle never does: here only the composition meets an uncovered a."""
        alphabet = EventAlphabet(events={"a", "u"}, controllable={"a"}, observable={"a"})
        g = Automaton(
            states={"0", "1", "2"}, alphabet=alphabet, transitions={("0", "u", "1"), ("1", "a", "2")}, initial="0"
        )
        sa = Automaton(
            states={"z0", "z1"},
            alphabet=alphabet.observable_restriction(),
            transitions={("z0", "u", "z1"), ("z0", "a", "z0")},
            initial="z0",
        )
        strategy = ObservationAttackStrategy(sa=sa, omega={})
        undeclared = "attack-context automaton: transition ('z0', 'u', 'z1') uses undeclared event 'u'"
        label = "attack-context transition label 'u' is not an observable event"
        assert strategy_problems_two_pass(g, strategy)[0] == [undeclared, label]
        assert validate_strategy(g, strategy) == [
            undeclared,
            label,
            "the attack-context automaton does not cover the projected plant language; witness observation: a",
        ]

    def test_matches_the_two_pass_oracle_on_random_strategies(self):
        rng = random.Random(818)
        seen = {"valid": 0, "witness": 0, "missing pair": 0, "alien": 0, "unobservable plant": 0}
        checked = 0
        while checked < 1000:
            g, _ = random_model(rng)
            intact = random_strategy(rng, g)
            if intact is None:
                continue
            checked += 1
            sa, omega = intact.sa, dict(intact.omega)
            if rng.random() < 0.4:
                kept = frozenset(t for t in sorted(sa.transitions) if rng.random() < 0.8)
                sa = Automaton(states=sa.states, alphabet=sa.alphabet, transitions=kept, initial=sa.initial)
            if rng.random() < 0.3:
                omega = {key: f for key, f in sorted(omega.items()) if rng.random() < 0.7}
            if rng.random() < 0.2:
                sa = Automaton(states=sa.states, alphabet=g.alphabet, transitions=sa.transitions, initial=sa.initial)
            strategy = ObservationAttackStrategy(sa=sa, omega=omega)
            problems = validate_strategy(g, strategy)
            expected, composed = strategy_problems_two_pass(g, strategy)
            alien = [p for p in problems if p.startswith(self.ALIEN)]
            assert alien == [f"{self.ALIEN} {e!r}" for e in sorted(sa.alphabet.events & g.alphabet.unobservable)]
            seen["unobservable plant"] += bool(g.alphabet.unobservable)
            if alien:
                seen["alien"] += 1
                # The composition drops the plant's moves on the declared
                # event, so what is read off it (the witness and the
                # reachable pairs) may differ from the oracle's.
                composed_only = ("the attack-context automaton does not cover", "no corruption language")
                assert [p for p in problems if p not in alien and not p.startswith(composed_only)] == [
                    p for p in expected if not p.startswith(composed_only)
                ]
                continue
            assert problems == expected
            assert check_projection_containment(g, sa) == containment_by_search(g, sa)
            seen["witness"] += any("witness" in p for p in problems)
            seen["missing pair"] += any(p.startswith("no corruption language") for p in problems)
            if not problems:
                seen["valid"] += 1
                conv = convert_observation_based(g, strategy)
                product, pairs, entries = composed
                assert conv.product == product
                assert list(conv.pairs.items()) == list(pairs.items())
                assert list(conv.policy.entries.items()) == list(entries.items())
        assert min(seen.values()) >= 50, seen

    def test_one_composition_and_no_search_on_the_valid_path(self, monkeypatch):
        """The first call of a strategy on a plant composes once; a repeat call reads the memo."""
        import descat.attacks

        calls = {"parallel_compose_pairs": 0, "breadth_first": 0}
        for name in calls:
            original = getattr(descat.attacks, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(descat.attacks, name, counted)
        model = make_cycle(("beta",))
        for call in (validate_strategy, convert_observation_based):
            strategy = make_cycle_strategy(model)
            for composed in (1, 0):
                calls.update(parallel_compose_pairs=0, breadth_first=0)
                call(model.plant, strategy)
                assert calls == {"parallel_compose_pairs": composed, "breadth_first": 0}
        broken = ObservationAttackStrategy(
            sa=Automaton(
                states={"z1", "z2"},
                alphabet=model.alphabet.observable_restriction(),
                transitions={("z1", "alpha", "z2")},
                initial="z1",
            ),
            omega=strategy.omega,
        )
        for searched in (1, 0):
            calls.update(parallel_compose_pairs=0, breadth_first=0)
            assert any("witness observation: alpha alpha" in p for p in validate_strategy(model.plant, broken))
            assert calls == {"parallel_compose_pairs": searched, "breadth_first": searched}
