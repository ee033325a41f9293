"""Attack substitution, observers and state estimates, cross-checked against
independent breadth-first oracles."""

import random

import pytest

from descat import (
    EPSILON,
    Automaton,
    EventAlphabet,
    InputError,
    SensorAttackPolicy,
    build_ca_observer,
    build_g_diamond,
    bounded_marked_language,
    convert_observation_based,
    enumerate_language,
    erase_unobservable,
    export_dot,
    lift_estimate,
    replace_transition,
    state_estimate,
)
from conftest import random_model, random_strategy
from oracles import (
    diamond_by_replacement,
    estimate_oracle,
    phi_language_oracle,
    projected_marked_words,
    subset_construction_by_names,
)

W = lambda text: tuple(text.split())


class TestReplaceTransition:
    def test_corpus_fragment_structure(self, cycle):
        replaced = replace_transition(
            cycle.plant, ("2", "lambda", "3"), cycle.f1, prefix="tr0"
        )
        assert ("2", "lambda", "3") not in replaced.transitions
        assert ("2", EPSILON, "tr0/A") in replaced.transitions
        assert ("tr0/A", "lambda", "tr0/C") in replaced.transitions
        assert ("tr0/C", "mu", "tr0/B") in replaced.transitions
        for marked in ("tr0/A", "tr0/B", "tr0/C"):
            assert (marked, EPSILON, "3") in replaced.transitions

    def test_missing_transition_rejected(self, cycle):
        with pytest.raises(InputError):
            replace_transition(cycle.plant, ("1", "mu", "3"), cycle.f1)

    def test_identity_language_replacement(self, cycle):
        ident = Automaton(
            states={"i", "f"},
            alphabet=cycle.alphabet,
            transitions={("i", "lambda", "f")},
            initial="i",
            marked={"f"},
        )
        replaced = replace_transition(cycle.plant, ("2", "lambda", "3"), ident)
        for d in range(7):
            assert enumerate_language(replaced, d) == enumerate_language(cycle.plant, d)

    def test_empty_word_replacement_gives_silent_jump(self, cycle):
        skip = Automaton(
            states={"s"}, alphabet=cycle.alphabet, transitions=set(), initial="s", marked={"s"}
        )
        replaced = replace_transition(cycle.plant, ("2", "lambda", "3"), skip)
        # lambda disappears: the cycle becomes alpha mu alpha mu ...
        assert W("alpha mu") in enumerate_language(replaced, 3)
        assert W("alpha lambda") not in enumerate_language(replaced, 3)


class TestDiamond:
    def test_corpus_shape(self, cycle):
        diamond = build_g_diamond(cycle.plant, cycle.policy)
        assert diamond.original_states == cycle.plant.states
        assert diamond.injected_states == {"tr0/A", "tr0/B", "tr0/C", "tr1/D", "tr1/E"}
        assert diamond.automaton.marked == cycle.plant.states
        assert diamond.provenance["tr0/A"] == (("2", "lambda", "3"), "A")
        assert diamond.provenance["tr1/E"] == (("3", "mu", "1"), "E")

    def test_empty_policy_marks_plant_states(self, cycle):
        alphabet = EventAlphabet(
            events=cycle.alphabet.events,
            controllable=cycle.alphabet.controllable,
            observable=cycle.alphabet.observable,
        )
        plant = Automaton(
            states=cycle.plant.states,
            alphabet=alphabet,
            transitions=cycle.plant.transitions,
            initial="1",
        )
        diamond = build_g_diamond(plant, SensorAttackPolicy.empty())
        assert diamond.automaton.transitions == plant.transitions
        assert diamond.automaton.marked == plant.states
        assert diamond.injected_states == frozenset()

    def test_equals_sequential_replacement_on_random_models(self):
        rng = random.Random(4040)
        converted = 0
        for _ in range(120):
            g, policy = random_model(rng, acyclic_attacks=False)
            setups = [(g, policy)]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                conversion = convert_observation_based(g, strategy)
                setups.append((conversion.product, conversion.policy))
                converted += 1
            for plant, pol in setups:
                fast, slow = build_g_diamond(plant, pol), diamond_by_replacement(plant, pol)
                assert fast.automaton == slow.automaton
                assert fast.injected_states == slow.injected_states
                assert list(fast.provenance.items()) == list(slow.provenance.items())
                assert export_dot(fast, name="diamond") == export_dot(slow, name="diamond")
        assert converted > 30

    @pytest.mark.parametrize("taken", [("tr1/E",), ("tr1/E", "tr0/B")])
    def test_name_clash_error_matches_sequential_replacement(self, cycle, taken):
        # Plant states named like injected copies: the first entry in sorted
        # order whose copy clashes is the one reported.
        plant = Automaton(
            states=cycle.plant.states | set(taken),
            alphabet=cycle.alphabet,
            transitions=cycle.plant.transitions | {("4", "beta", name) for name in taken},
            initial="1",
        )
        messages = []
        for build in (build_g_diamond, diamond_by_replacement, build_ca_observer):
            with pytest.raises(InputError) as err:
                build(plant, cycle.policy)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]
        assert repr([min(taken)]) in messages[0]

    def test_marked_language_is_corruption_image(self, cycle):
        diamond = build_g_diamond(cycle.plant, cycle.policy)
        for d in range(6):
            assert bounded_marked_language(diamond.automaton, d) == frozenset(
                t for t in phi_language_oracle(cycle.plant, cycle.policy, d)
            )


class TestEraseUnobservable:
    def test_fully_observable_is_identity(self, cycle):
        diamond = build_g_diamond(cycle.plant, cycle.policy)
        assert erase_unobservable(diamond).automaton == diamond.automaton

    def test_single_unobservable_label_becomes_epsilon(self):
        alphabet = EventAlphabet(events={"a", "u"}, observable={"a"})
        a = Automaton(
            states={"0", "1", "2"},
            alphabet=alphabet,
            transitions={("0", "u", "1"), ("1", "a", "2")},
            initial="0",
            marked={"2"},
        )
        from descat import DiamondAutomaton

        erased = erase_unobservable(
            DiamondAutomaton(
                automaton=a,
                original_states=a.states,
                injected_states=frozenset(),
                provenance={},
            )
        )
        assert ("0", EPSILON, "1") in erased.automaton.transitions
        assert ("1", "a", "2") in erased.automaton.transitions

    def test_projects_marked_language(self):
        rng = random.Random(91)
        checked = 0
        while checked < 10:
            g, policy = random_model(rng)
            if g.alphabet.unobservable == frozenset():
                continue
            checked += 1
            diamond = build_g_diamond(g, policy)
            erased = erase_unobservable(diamond)
            for d in (0, 3, 6):
                expected = projected_marked_words(
                    diamond.automaton, d, observable=g.alphabet.observable
                )
                got = bounded_marked_language(erased.automaton, d)
                assert got == expected


class TestObserver:
    def test_corpus_observer_states(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        assert obs.observer.initial == "{1}"
        assert obs.observer.states == {
            "{1}",
            "{2,3,tr0/A,tr1/D}",
            "{3,tr0/C,tr1/D}",
            "{1,3,tr0/B,tr1/D,tr1/E}",
            "{1,tr1/E}",
            "{4}",
        }
        assert obs.observer.is_deterministic

    def test_equals_the_erased_diamond_determinized_by_names_on_random_models(self):
        rng = random.Random(6060)
        converted = 0
        for _ in range(150):
            g, policy = random_model(rng, acyclic_attacks=False)
            setups = [(g, policy)]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                conversion = convert_observation_based(g, strategy)
                setups.append((conversion.product, conversion.policy))
                converted += 1
            for plant, pol in setups:
                obs = build_ca_observer(plant, pol)
                observer, members = subset_construction_by_names(erase_unobservable(build_g_diamond(plant, pol)).automaton)
                assert obs.observer == observer
                assert list(obs.members.items()) == list(members.items())
                assert obs.plant_states == plant.states
        assert converted > 30

    def test_table_view_and_synthesis_equal_the_per_member_walk_on_random_specs(self):
        """The spec's one memoised observer equals the per-member walk, whichever reader fills it first.

        Under policies (acyclic and cyclic corruption languages) and
        strategies, in two orders: a depth-limited check and a read of one
        numbered row fill a breadth-first prefix, then synthesis completes
        it; and :func:`build_ca_observer` builds it cold on an equal attack.
        Masks, rows and numbering are the oracle's in both, and synthesis
        and :func:`attacked_observer` return the one shared observer.
        """
        import warnings

        from descat import ObservationAttackStrategy, check_ca_observability_bounded, synthesize_ca_supervisor
        from descat.estimation import _observer_walk, attacked_observer
        from conftest import random_spec
        from oracles import subset_walk_by_members

        def parts(table):
            return table.masks, [list(row.items()) for row in table.rows]

        rng = random.Random(6062)
        seen = {"acyclic": 0, "cyclic": 0, "strategy": 0, "prefix": 0}
        for i in range(150):
            acyclic = i % 2 == 0
            g, policy = random_model(rng, acyclic_attacks=acyclic)
            h = random_spec(rng, g)
            attacks = [("acyclic" if acyclic else "cyclic", policy, SensorAttackPolicy(entries=policy.entries))]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append(("strategy", strategy, ObservationAttackStrategy(sa=strategy.sa, omega=strategy.omega)))
            for kind, attack, twin in attacks:
                if kind == "strategy":
                    # The check runs on the plant's conversion; synthesis's observer is the spec's own.
                    conversions = convert_observation_based(h, attack), convert_observation_based(h, twin)
                    (target, pol), (_, twin_pol) = [(c.product, c.policy) for c in conversions]
                else:
                    target, pol, twin_pol = h, attack.restricted_to(h)[0], twin.restricted_to(h)[0]
                expected = subset_walk_by_members(erase_unobservable(build_g_diamond(target, pol)).automaton)
                expected = expected[0], [list(row.items()) for row in expected[1]]
                walk = _observer_walk(target, pol)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    check_ca_observability_bounded(g, h, attack, depth=3)
                    walk[rng.randrange(len(walk.masks))]  # a numbered row: it and every row before it are built
                    seen["prefix"] += len(walk) < len(expected[0])
                    assert walk.masks == expected[0][: len(walk.masks)]
                    assert [list(row.items()) for row in walk.values()] == expected[1][: len(walk)]
                    sup = synthesize_ca_supervisor(g, h, attack)
                assert sup.observer is attacked_observer(h, attack)[0] is walk.observer
                assert parts(sup.observer.table) == expected
                cold = build_ca_observer(target, twin_pol)
                assert cold is not sup.observer and parts(cold.table) == expected
                seen[kind] += 1
        assert min(seen.values()) >= 40, seen

    def test_builds_the_observer_alone_and_closes_each_state_once(self, cycle, monkeypatch):
        import descat.automata

        built = []
        post_init = Automaton.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        def unexpected(*args):
            raise AssertionError("unobservable_reach called")

        monkeypatch.setattr(Automaton, "__post_init__", counted)
        monkeypatch.setattr(descat.automata, "unobservable_reach", unexpected)
        obs = build_ca_observer(cycle.plant, cycle.policy)
        assert built == []  # the observer is a table of ints until its names are read
        observer = obs.observer
        assert len(built) == 1 and built[0] is observer and obs.observer is observer

    def test_names_follow_sorted_order_not_numeric_or_insertion_order(self, tmp_path, capsys):
        from descat import parse_model
        from descat.cli import main

        text = """alphabet:
  a controllable observable
  s observable sensor-attackable
  u

plant:
  initial q9
  states tr0/x q9 q10
  transition q9 s q10
  transition q10 u tr0/x
  transition q10 a q9
  transition tr0/x u q9
  transition tr0/x a q10

attack tr q9 s q10:
  initial f0
  states f0 f1
  marked f1
  transition f0 s f1
  transition f0 a f1
"""
        path = tmp_path / "names.des"
        path.write_text(text, encoding="utf-8")
        doc = parse_model(text)
        obs = build_ca_observer(doc.plant, doc.policy())
        observer, members = subset_construction_by_names(
            erase_unobservable(build_g_diamond(doc.plant, doc.policy())).automaton
        )
        assert list(obs.members) == list(members)
        assert list(members) == ["{q9,tr0/f0}", "{q10,q9,tr0/f0,tr0/f1,tr0/x}"]
        assert main(["export-dot", "--what", "observer", str(path)]) == 0
        assert capsys.readouterr().out == export_dot(observer, name="observer")

    def test_no_attack_fully_observable_observer_is_plant(self):
        alphabet = EventAlphabet(events={"a", "b"}, observable={"a", "b"})
        plant = Automaton(
            states={"0", "1"},
            alphabet=alphabet,
            transitions={("0", "a", "1"), ("1", "b", "0")},
            initial="0",
        )
        obs = build_ca_observer(plant, SensorAttackPolicy.empty())
        assert len(obs.observer.states) == 2
        assert obs.observer.marked == obs.observer.states

    def test_observation_language_matches_oracle_on_corpus(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        for d in range(7):
            assert enumerate_language(obs.observer, d, marked_only=True) == phi_language_oracle(
                cycle.plant, cycle.policy, d
            )

    def test_observation_language_matches_oracle_on_random_models(self):
        rng = random.Random(1234)
        for _ in range(25):
            g, policy = random_model(rng, acyclic_attacks=False)
            obs = build_ca_observer(g, policy)
            assert enumerate_language(obs.observer, 6, marked_only=True) == phi_language_oracle(
                g, policy, 6
            )

    def test_marked_iff_nonempty_plant_projection(self):
        rng = random.Random(555)
        for _ in range(20):
            g, policy = random_model(rng, acyclic_attacks=False)
            obs = build_ca_observer(g, policy)
            for state in obs.observer.states:
                assert (state in obs.observer.marked) == bool(obs.plant_projection(state))


class TestAdvance:
    def test_advance_continues_state_for(self):
        """advance(state_for(u), v) == state_for(u + v), infeasible and unknown events included."""

        def outcome(f):
            try:
                return f()
            except InputError:
                return "InputError"

        rng = random.Random(4242)
        seen = {"feasible": 0, "infeasible": 0, "unknown": 0}
        for _ in range(30):
            g, policy = random_model(rng, acyclic_attacks=rng.random() < 0.5)
            obs = build_ca_observer(g, policy)
            pool = sorted(g.alphabet.events) + ["zz"]
            for _ in range(40):
                word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 7)))
                cut = rng.randint(0, len(word))
                u, v = word[:cut], word[cut:]
                expected = outcome(lambda: obs.state_for(u + v))
                prefix = outcome(lambda: obs.state_for(u))
                if prefix == "InputError":
                    assert expected == "InputError"
                else:
                    assert outcome(lambda: obs.advance(prefix, v)) == expected
                seen["unknown" if expected == "InputError" else "infeasible" if expected is None else "feasible"] += 1
        assert min(seen.values()) >= 50, seen

    def test_none_stays_none(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        assert obs.advance(None, W("alpha zz")) is None
        with pytest.raises(InputError):
            obs.advance(obs.observer.initial, W("zz"))


class TestStateEstimate:
    def test_corpus_estimate_for_alpha_lambda_mu(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        assert state_estimate(obs, W("alpha lambda mu")) == {"1", "3"}
        reached = obs.state_for(W("alpha lambda mu"))
        assert {m.split("/")[-1] for m in obs.members[reached]} == {"1", "3", "B", "D", "E"}

    def test_no_attack_empty_observation_estimates_initial(self):
        alphabet = EventAlphabet(events={"a"}, observable={"a"})
        plant = Automaton(
            states={"0", "1"}, alphabet=alphabet, transitions={("0", "a", "1")}, initial="0"
        )
        obs = build_ca_observer(plant, SensorAttackPolicy.empty())
        assert state_estimate(obs, ()) == {"0"}

    def test_infeasible_observation_estimates_empty(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        assert state_estimate(obs, W("beta")) == frozenset()

    def test_estimates_match_oracle_on_corpus(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        observations = enumerate_language(obs.observer, 6, marked_only=True)
        prefixes = {t[:k] for t in observations for k in range(len(t) + 1)}
        for t in sorted(prefixes) + [W("beta beta"), W("mu alpha")]:
            assert state_estimate(obs, t) == estimate_oracle(cycle.plant, cycle.policy, t)

    def test_estimates_match_oracle_on_random_models(self):
        rng = random.Random(777)
        for _ in range(12):
            g, policy = random_model(rng, acyclic_attacks=False)
            obs = build_ca_observer(g, policy)
            for t in sorted(enumerate_language(obs.observer, 5, marked_only=True)):
                assert state_estimate(obs, t) == estimate_oracle(g, policy, t)

    def test_estimates_never_contain_injected_states(self, cycle):
        obs = build_ca_observer(cycle.plant, cycle.policy)
        for t in enumerate_language(obs.observer, 6, marked_only=True):
            assert state_estimate(obs, t) <= cycle.plant.states


class TestMidFragmentObservations:
    """Observations that stop inside a corruption fragment have empty estimates."""

    def make_model(self):
        alphabet = EventAlphabet(
            events={"a", "b", "u"},
            controllable={"a", "b"},
            observable={"a", "b"},
            sensor_attackable={"a"},
        )
        plant = Automaton(
            states={"1", "2"},
            alphabet=alphabet,
            transitions={("1", "a", "2")},
            initial="1",
        )
        two_step = Automaton(
            states={"i", "m", "f"},
            alphabet=alphabet,
            transitions={("i", "b", "m"), ("m", "b", "f")},
            initial="i",
            marked={"f"},
        )
        policy = SensorAttackPolicy.from_transitions({("1", "a", "2"): two_step})
        return plant, policy

    def test_prefix_observation_has_empty_estimate(self):
        plant, policy = self.make_model()
        obs = build_ca_observer(plant, policy)
        assert state_estimate(obs, ("b",)) == frozenset()
        assert state_estimate(obs, ("b", "b")) == {"2"}
        mid = obs.state_for(("b",))
        assert mid not in obs.observer.marked

    def test_supervisor_withholds_decisions_mid_fragment(self):
        from descat import synthesize_ca_supervisor

        plant, policy = self.make_model()
        sup = synthesize_ca_supervisor(plant, plant, policy)
        assert sup.control_for(("b",)) == plant.alphabet.uncontrollable == {"u"}
        assert sup.control_for(("b", "b")) == plant.alphabet.events

    def test_run_after_alpha_includes_silent_reach(self, cycle):
        from descat import run

        diamond = build_g_diamond(cycle.plant, cycle.policy)
        assert run(diamond.automaton, ("alpha",)) == {"2", "3", "tr0/A", "tr1/D"}


class TestLiftEstimate:
    def test_corpus_pairs_project_to_plant_states(self, cycle_beta, cycle_strategy):
        from descat import convert_observation_based

        conv = convert_observation_based(cycle_beta.spec, cycle_strategy)
        obs = build_ca_observer(conv.product, conv.policy)
        estimate = state_estimate(obs, W("alpha"))
        assert estimate == {"(2,z2)", "(3,z3)"}
        assert lift_estimate(estimate, conv.pairs) == {"2", "3"}

    def test_lifted_estimates_match_contextual_oracle_on_random_models(self):
        import random

        from descat import convert_observation_based
        from descat.estimation import attacked_observer
        from conftest import random_strategy
        from oracles import omega_estimate_oracle

        rng = random.Random(3131)
        checked = 0
        while checked < 10:
            g, _ = random_model(rng, acyclic_attacks=True)
            strategy = random_strategy(rng, g)
            if strategy is None:
                continue
            checked += 1
            conv = convert_observation_based(g, strategy)
            obs = build_ca_observer(conv.product, conv.policy)
            helper_obs, lift = attacked_observer(g, strategy)
            assert helper_obs == obs
            observations = enumerate_language(obs.observer, 5, marked_only=True)
            prefixes = {t[:k] for t in observations for k in range(len(t) + 1)}
            for t in sorted(prefixes):
                lifted = lift_estimate(state_estimate(obs, t), conv.pairs)
                assert lifted == omega_estimate_oracle(g, strategy, t)
                assert lift(state_estimate(obs, t)) == lifted

    def test_empty_estimate_lifts_to_empty(self):
        assert lift_estimate(frozenset(), {}) == frozenset()

    def test_duplicate_plant_components_collapse(self, cycle_beta):
        pairs = {"(1,z1)": ("1", "z1"), "(1,z5)": ("1", "z5")}
        assert lift_estimate({"(1,z1)", "(1,z5)"}, pairs) == {"1"}
