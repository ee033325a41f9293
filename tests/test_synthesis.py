"""Supervisor synthesis: controls per observer state, the observation-based
variant, unions and the permissiveness ordering."""

import dataclasses
import random
import re
import warnings

import pytest

from descat import (
    AttackerStrategy,
    Automaton,
    InputError,
    SensorAttackPolicy,
    Supervisor,
    EventAlphabet,
    attacked_commands,
    build_ca_observer,
    compare_permissiveness,
    disabled_set,
    run_campaign,
    simulate,
    supervisor_union,
    synthesize_ca_supervisor,
    synthesize_obs_based,
    verify_large_language_equals,
)
from oracles import simulate_by_rewalk, supervisor_by_names, verify_by_name_sets
from conftest import random_model, random_spec, random_strategy, random_supervisor

W = lambda text: tuple(text.split())

SIGMA = frozenset({"alpha", "beta", "lambda", "mu"})


class TestDisabledSet:
    def test_corpus_estimate_with_state_two_disables_alpha(self, cycle):
        assert disabled_set({"2", "3"}, cycle.plant, {"1", "2", "3"}) == {"alpha"}

    def test_empty_estimate_disables_nothing(self, cycle):
        assert disabled_set(frozenset(), cycle.plant, {"1", "2", "3"}) == frozenset()

    def test_no_escaping_transition_disables_nothing(self, cycle):
        assert disabled_set({"1", "3"}, cycle.plant, {"1", "2", "3"}) == frozenset()


class TestSynthesize:
    def test_corpus_controls(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        restrictive = {x for x, c in sup.controls.items() if c != SIGMA}
        assert restrictive == {"{2,3,tr0/A,tr1/D}"}
        assert sup.controls["{2,3,tr0/A,tr1/D}"] == {"beta", "lambda", "mu"}
        assert sup.estimates["{2,3,tr0/A,tr1/D}"] == {"2", "3"}
        assert sup.control_for(W("alpha")) == {"beta", "lambda", "mu"}
        assert sup.control_for(W("alpha lambda mu")) == SIGMA

    def test_default_control_is_uncontrollable_set(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        assert sup.default_control == frozenset() == sup.alphabet.uncontrollable
        assert sup.control_for(W("beta beta")) == frozenset()
        # Derived from the alphabet, not a field a caller could set apart from it.
        with pytest.raises(TypeError):
            dataclasses.replace(sup, default_control=frozenset({"alpha"}))

    def test_no_attack_full_observation_enables_everything(self):
        rng = random.Random(2)
        checked = 0
        while checked < 5:
            g, _ = random_model(rng)
            if g.alphabet.sensor_attackable or g.alphabet.unobservable:
                continue
            checked += 1
            sup = synthesize_ca_supervisor(g, g, SensorAttackPolicy.empty())
            assert all(c == g.alphabet.events for c in sup.controls.values())

    def test_policy_entries_outside_spec_warned_and_ignored(self, cycle_beta):
        extra = SensorAttackPolicy.from_transitions(
            {
                **cycle_beta.policy.entries,
                # a lambda-labelled transition on the unsafe branch
            }
        )
        plant = Automaton(
            states=cycle_beta.plant.states,
            alphabet=cycle_beta.alphabet,
            transitions=cycle_beta.plant.transitions | {("4", "lambda", "4")},
            initial="1",
        )
        from descat import sub_automaton

        spec = sub_automaton(plant, {"1", "2", "3"})
        policy = SensorAttackPolicy.from_transitions(
            {**extra.entries, ("4", "lambda", "4"): cycle_beta.f1}
        )
        with pytest.warns(UserWarning, match="outside the specification") as record:
            sup = synthesize_ca_supervisor(plant, spec, policy)
        assert record[0].filename == __file__
        assert sup.control_for(W("alpha")) == {"beta", "lambda", "mu"}

    def test_every_control_contains_uncontrollables(self):
        rng = random.Random(31)
        for _ in range(15):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sup = synthesize_ca_supervisor(g, h, policy)
            for control in sup.controls.values():
                assert g.alphabet.uncontrollable <= control

    def test_controls_may_never_drop_uncontrollable_events(self):
        from descat import Automaton, EventAlphabet, InputError as IE

        alphabet = EventAlphabet(events={"a", "u"}, controllable={"a"}, observable={"a", "u"})
        plant = Automaton(
            states={"0", "1"},
            alphabet=alphabet,
            transitions={("0", "a", "1"), ("1", "u", "0")},
            initial="0",
        )
        sup = synthesize_ca_supervisor(plant, plant, SensorAttackPolicy.empty())
        state = next(iter(sup.controls))
        with pytest.raises(IE):
            sup.with_control(state, frozenset())

    def test_empty_estimate_states_get_exactly_uncontrollables(self):
        rng = random.Random(32)
        seen_empty = 0
        for _ in range(40):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sup = synthesize_ca_supervisor(g, h, policy)
            for state, estimate in sup.estimates.items():
                if not estimate:
                    seen_empty += 1
                    assert sup.controls[state] == g.alphabet.uncontrollable
        # the generator does produce unmarked observer states now and then
        assert seen_empty >= 0


class TestAttackedCommands:
    def test_corpus_observation_expands_to_four_controls(self, cycle):
        sup = synthesize_ca_supervisor(cycle.plant, cycle.spec, cycle.policy)
        out = attacked_commands(sup, W("alpha lambda mu"))
        issued = sup.control_for(W("alpha lambda mu"))
        assert issued == SIGMA
        assert len(out) == 4
        assert issued in out

    def test_no_attackable_actuators_is_singleton(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        out = attacked_commands(sup, W("alpha"), actuator_attackable=frozenset())
        assert out == {sup.control_for(W("alpha"))}


class TestObservationBasedSynthesis:
    def test_corpus_estimate_and_control_for_alpha(self, cycle_beta, cycle_strategy):
        sup = synthesize_obs_based(cycle_beta.plant, cycle_beta.spec, cycle_strategy)
        assert sup.estimate_for(W("alpha")) == {"2", "3"}
        assert sup.control_for(W("alpha")) == {"beta", "lambda", "mu"}
        assert sup.control_for(()) == SIGMA
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_strategy) == sup

    def test_single_state_context_matches_transition_based(self, cycle_beta):
        alphabet = cycle_beta.alphabet
        sa = Automaton(
            states={"z"},
            alphabet=alphabet.observable_restriction(),
            transitions={("z", e, "z") for e in alphabet.observable},
            initial="z",
        )
        from descat import ObservationAttackStrategy

        strategy = ObservationAttackStrategy(
            sa=sa, omega={("z", "lambda"): cycle_beta.f1, ("z", "mu"): cycle_beta.f2}
        )
        obs_sup = synthesize_obs_based(cycle_beta.plant, cycle_beta.spec, strategy)
        tr_sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        from descat import enumerate_language

        for t in enumerate_language(tr_sup.observer.observer, 6):
            assert obs_sup.control_for(t) == tr_sup.control_for(t)
            assert obs_sup.estimate_for(t) == tr_sup.estimate_for(t)

    def test_closed_loop_verifies(self, cycle_beta, cycle_strategy):
        from descat import convert_observation_based, sub_automaton

        sup = synthesize_obs_based(cycle_beta.plant, cycle_beta.spec, cycle_strategy)
        conv = convert_observation_based(cycle_beta.plant, cycle_strategy)
        safe = frozenset(
            name for name, (q, _) in conv.pairs.items() if q in cycle_beta.spec.states
        )
        verdict = verify_large_language_equals(
            conv.product, sub_automaton(conv.product, safe), sup, conv.policy
        )
        assert verdict.holds

    def test_the_converted_policy_is_not_validated_again(self, monkeypatch):
        """Conversion builds a valid policy, so synthesis under a strategy validates none."""
        import descat.attacks
        from pathlib import Path

        from descat import load_model

        doc = load_model(str(Path(__file__).resolve().parent.parent / "models" / "cycle_obs.des"))
        g, h, strategy = doc.plant, doc.spec_automaton(), doc.strategy()
        validate = descat.attacks.validate_policy
        calls = []
        monkeypatch.setattr(descat.attacks, "validate_policy", lambda g, p: calls.append(1) or validate(g, p))
        sup = synthesize_ca_supervisor(g, h, strategy)
        assert calls == []
        conversion = descat.attacks.convert_observation_based(h, strategy)
        assert sup.observer == build_ca_observer(conversion.product, conversion.policy)
        assert calls == [1]


class TestUnionAndPermissiveness:
    def test_union_is_idempotent(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        assert supervisor_union(sup, sup).controls == sup.controls

    def test_union_with_minimal_supervisor_recovers_original(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        minimal = sup
        for state in sup.controls:
            minimal = minimal.with_control(state, cycle_beta.alphabet.uncontrollable)
        assert supervisor_union(sup, minimal).controls == sup.controls

    def test_self_comparison_is_equal(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        assert compare_permissiveness(sup, sup) == "equal"

    def test_hand_restricted_supervisor_is_strictly_less(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        restricted = sup.with_control("{3,tr0/C,tr1/D}", {"beta", "mu"})
        restricted = restricted.with_control("{1}", {"alpha", "mu", "beta"})
        assert compare_permissiveness(restricted, sup) == "strictly-less"
        assert compare_permissiveness(sup, restricted) == "strictly-greater"

    def test_disjoint_restrictions_are_incomparable(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        left = sup.with_control("{1}", {"lambda", "mu", "beta"})
        right = sup.with_control("{1,tr1/E}", {"alpha", "mu", "beta"})
        assert compare_permissiveness(left, right) == "incomparable"

    def test_union_requires_same_observer(self, cycle, cycle_beta):
        a = synthesize_ca_supervisor(cycle.plant, cycle.spec, cycle.policy)
        b = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.plant, cycle_beta.policy)
        with pytest.raises(InputError):
            supervisor_union(a, b)


def sample_valid_mutants(model, base, rng, attempts=20):
    """Mutate controls event-by-event, keeping only verified-valid supervisors."""
    mutants = []
    current = base
    for _ in range(attempts):
        state = rng.choice(sorted(current.controls))
        removable = sorted(
            current.controls[state]
            - model.alphabet.uncontrollable
            - model.alphabet.actuator_attackable
        )
        if not removable:
            current = base
            continue
        candidate = current.with_control(
            state, current.controls[state] - {rng.choice(removable)}
        )
        verdict = verify_large_language_equals(
            model.plant, model.spec, candidate, model.policy
        )
        if verdict.holds:
            current = candidate
            mutants.append(candidate)
        else:
            current = base
    return mutants


class TestMaximalPermissiveness:
    def test_sampled_valid_supervisors_never_exceed_synthesized(self, cycle_beta):
        base = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        rng = random.Random(99)
        mutants = sample_valid_mutants(cycle_beta, base, rng)
        assert mutants, "expected at least one valid mutation"
        for mutant in mutants:
            assert compare_permissiveness(mutant, base) in ("equal", "strictly-less")

    def test_unions_of_valid_supervisors_stay_valid(self, cycle_beta):
        base = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        rng = random.Random(100)
        mutants = sample_valid_mutants(cycle_beta, base, rng)
        assert len(mutants) >= 2
        for i in range(len(mutants) - 1):
            union = supervisor_union(mutants[i], mutants[i + 1])
            verdict = verify_large_language_equals(
                cycle_beta.plant, cycle_beta.spec, union, cycle_beta.policy
            )
            assert verdict.holds


class TestTableAgainstNamedConstruction:
    """Synthesis walks the observer on ints; its named maps must equal the construction on names."""

    def test_named_maps_equal_the_oracle_on_random_models(self):
        rng = random.Random(1616)
        compared = {"acyclic": 0, "cyclic": 0, "strategy": 0}
        for i in range(120):
            acyclic = i % 2 == 0
            g, policy = random_model(rng, acyclic_attacks=acyclic)
            h = random_spec(rng, g)
            attacks = [("acyclic" if acyclic else "cyclic", policy)]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append(("strategy", strategy))
            for kind, attack in attacks:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sup = synthesize_ca_supervisor(g, h, attack)
                observer, members, controls, estimates = supervisor_by_names(g, h, attack)
                assert sup.observer.observer == observer
                assert list(sup.observer.members.items()) == list(members.items())
                assert list(sup.controls.items()) == list(controls.items())
                assert list(sup.estimates.items()) == list(estimates.items())
                compared[kind] += 1
        assert min(compared.values()) >= 30, compared

    def test_hand_built_and_mutated_supervisors_verify_and_simulate_as_the_oracles(self):
        rng = random.Random(1617)
        checked = 0
        for i in range(40):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            mutant = random_supervisor(rng, g, h, policy)
            # Built by hand from the same maps, keyed by name and given in reverse order.
            hand = Supervisor(
                observer=mutant.observer,
                controls=dict(reversed(list(mutant.controls.items()))),
                estimates=mutant.estimates,
                alphabet=mutant.alphabet,
            )
            assert hand == mutant
            union = supervisor_union(mutant, hand)
            assert union.controls == mutant.controls
            for sup in (mutant, hand, union):
                assert verify_large_language_equals(g, h, sup, policy) == verify_by_name_sets(g, h, sup, policy)
                for attacker, steps in ((AttackerStrategy.random_choices(), 8), (AttackerStrategy.exhaustive(), 5)):
                    kwargs = dict(attacker=attacker, max_steps=steps, seed=i)
                    trace = simulate(g, h, sup, policy, **kwargs)
                    assert trace.to_text() == simulate_by_rewalk(g, h, sup, policy, **kwargs).to_text()
            checked += 1
        assert checked == 40

    def test_the_constructor_numbers_every_observer_state(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        controls = dict(sup.controls)
        del controls["{1}"]
        with pytest.raises(InputError, match="exactly the observer states"):
            Supervisor(sup.observer, controls, sup.estimates, sup.alphabet)
        with pytest.raises(InputError, match="exactly the observer states"):
            Supervisor(sup.observer, {**sup.controls, "{9}": SIGMA}, sup.estimates, sup.alphabet)

    def test_combinators_compare_tables_not_names(self, cycle_beta):
        """Equal tables built apart are the same observer; neither needs its names."""
        a = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        b = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, SensorAttackPolicy(entries=cycle_beta.policy.entries))
        assert a.observer.table is not b.observer.table
        assert compare_permissiveness(a, b) == "equal"
        assert supervisor_union(a, b).control_table == a.control_table
        for sup in (a, b):
            assert "names" not in vars(sup.observer.table)


class TestLazyEstimates:
    """Synthesis fills the control table from event masks and builds the estimate table on first read."""

    def test_synthesis_builds_no_estimate_table_until_it_is_read(self, cycle_beta, cycle_strategy):
        g, h = cycle_beta.plant, cycle_beta.spec
        for attack in (cycle_beta.policy, cycle_strategy):
            sup = synthesize_ca_supervisor(g, h, attack)
            assert verify_large_language_equals(g, h, sup, attack).holds
            run_campaign(g, h, sup, attack, trials=3, max_steps=10)
            simulate(g, h, sup, attack, attacker=AttackerStrategy.exhaustive(), max_steps=5)
            assert sup.control_for(W("alpha")) == {"beta", "lambda", "mu"}
            assert "estimate_table" not in vars(sup)
            assert sup.estimate_for(W("alpha")) == {"2", "3"}
            assert vars(sup)["estimate_table"] is sup.estimate_table

    def test_a_lazy_supervisor_equals_and_hashes_like_one_built_eagerly(self):
        rng = random.Random(1618)
        seen = {"acyclic": 0, "cyclic": 0, "strategy": 0}
        for i in range(80):
            acyclic = i % 2 == 0
            g, policy = random_model(rng, acyclic_attacks=acyclic)
            h = random_spec(rng, g)
            attacks = [("acyclic" if acyclic else "cyclic", policy)]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append(("strategy", strategy))
            for kind, attack in attacks:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    source, compared, hashed, shown = [synthesize_ca_supervisor(g, h, attack) for _ in range(4)]
                eager = Supervisor(source.observer, source.controls, source.estimates, source.alphabet)
                assert all("estimate_table" not in vars(sup) for sup in (compared, hashed, shown))
                assert compared == eager and eager == compared
                for value in (hashed, eager, hashed.observer, hashed.observer.table):
                    with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
                        hash(value)
                assert repr(shown) == repr(eager)
                state = sorted(eager.controls)[-1]
                assert source.with_control(state, SIGMA | g.alphabet.events) == eager.with_control(
                    state, SIGMA | g.alphabet.events
                )
                assert supervisor_union(source, eager) == eager
                seen[kind] += 1
        assert min(seen.values()) >= 20, seen

    def test_a_dropped_uncontrollable_event_names_the_first_offending_state(self):
        alphabet = EventAlphabet(events={"a", "u"}, controllable={"a"}, observable={"a", "u"})
        plant = Automaton(
            states={"0", "1", "2", "3"},
            alphabet=alphabet,
            transitions={("0", "a", "1"), ("1", "a", "2"), ("2", "a", "3"), ("3", "u", "0")},
            initial="0",
        )
        sup = synthesize_ca_supervisor(plant, plant, SensorAttackPolicy.empty())
        assert sup.observer.table.names == ["{0}", "{1}", "{2}", "{3}"]
        assert len({id(control) for control in sup.control_table}) == 1  # one shared control object
        dropped = frozenset({"a"})

        def raises(state):
            return pytest.raises(InputError, match=re.escape(f"control for observer state '{state}' drops"))

        with raises("{2}"):
            sup.with_control("{2}", dropped)
        with raises("{1}"):
            Supervisor(sup.observer, {**sup.controls, "{1}": dropped, "{3}": dropped}, sup.estimates, alphabet)
        # One object at several states is checked once, and reported at the first of them.
        control = sup.control_table[0]
        with raises("{1}"):
            Supervisor._on_table(sup.observer, [control, dropped, control, dropped], alphabet, _plant_of=["0"] * 4)
