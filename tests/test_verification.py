"""Controllability and observability checks, the large-language product
construction, and its brute-force cross-check."""

import random
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from descat import (
    Automaton,
    InputError,
    SensorAttackPolicy,
    UnsupportedSupervisorError,
    build_ca_observer,
    check_ca_controllability,
    check_ca_observability_bounded,
    enumerate_language,
    large_language_automaton,
    load_model,
    phi_enumerate,
    synthesize_ca_supervisor,
    transition_based_setup,
    verify_large_language_equals,
)
from oracles import (
    brute_force_large_language,
    large_language_by_name_sets,
    observability_by_enumeration,
    observability_by_name_sets,
    quotient_by_pairs,
    verify_by_name_sets,
)
from conftest import random_model, random_spec, random_strategy, random_supervisor
import descat.verification
from descat.verification import _quotient

MODELS = Path(__file__).resolve().parent.parent / "models"

W = lambda text: tuple(text.split())


class TestVerdict:
    def test_failing_verdict_needs_counterexample(self):
        from descat import Verdict

        with pytest.raises(InputError):
            Verdict(status="fails")

    def test_bounded_verdict_needs_depth(self):
        from descat import Verdict

        with pytest.raises(InputError):
            Verdict(status="holds-to-depth")

    def test_unknown_status_rejected(self):
        from descat import Verdict

        with pytest.raises(InputError):
            Verdict(status="maybe")


class TestControllability:
    def test_fails_when_both_actuators_attackable(self, cycle):
        verdict = check_ca_controllability(cycle.plant, cycle.spec)
        assert verdict.status == "fails"
        assert verdict.counterexample.string == W("alpha")
        assert verdict.counterexample.event == "alpha"

    def test_holds_with_beta_only(self, cycle_beta):
        verdict = check_ca_controllability(cycle_beta.plant, cycle_beta.spec)
        assert verdict.status == "holds"
        assert verdict.holds

    def test_spec_equal_to_plant_always_holds(self, cycle):
        verdict = check_ca_controllability(cycle.plant, cycle.plant)
        assert verdict.status == "holds"

    def test_requires_subautomaton(self, cycle):
        not_sub = Automaton(
            states={"1", "2"},
            alphabet=cycle.alphabet,
            transitions={("1", "lambda", "2")},
            initial="1",
        )
        with pytest.raises(InputError):
            check_ca_controllability(cycle.plant, not_sub)

    def test_requires_deterministic_plant(self, cycle):
        nondet = Automaton(
            states=cycle.plant.states,
            alphabet=cycle.alphabet,
            transitions=cycle.plant.transitions | {("1", "alpha", "3")},
            initial="1",
        )
        with pytest.raises(InputError, match="deterministic"):
            check_ca_controllability(nondet, nondet)

    def test_agrees_with_definitional_language_test(self):
        rng = random.Random(404)
        for _ in range(30):
            g, _ = random_model(rng)
            h = random_spec(rng, g)
            verdict = check_ca_controllability(g, h)
            unstoppable = g.alphabet.uncontrollable | g.alphabet.actuator_attackable
            k = enumerate_language(h, 8)
            lg = enumerate_language(g, 8)
            definitional = all(
                s + (e,) in k
                for s in k
                if len(s) < 8
                for e in unstoppable
                if s + (e,) in lg
            )
            assert verdict.holds == definitional

    def test_growing_attack_set_never_repairs_a_failure(self):
        rng = random.Random(405)
        for _ in range(30):
            g, _ = random_model(rng)
            h = random_spec(rng, g)
            small = check_ca_controllability(g, h, actuator_attackable=frozenset())
            big = check_ca_controllability(
                g, h, actuator_attackable=g.alphabet.actuator_attackable
            )
            if not small.holds:
                assert not big.holds


def def4_literal_check(g, h, policy, depth, string_bound, obs_cap=24) -> bool:
    """Literal evaluation of estimate-consistent observability.

    Quantifies the inverse image over plant strings up to ``string_bound``,
    which must be chosen so longer strings cannot produce the observations
    in play (for the corpus model every plant cycle emits an unattacked
    alpha, so strings are at most three times their observation length).
    """
    k = enumerate_language(h, depth)
    lg = enumerate_language(g, string_bound)
    phi = {s: phi_enumerate(s, g, policy, depth=obs_cap).strings for s in lg}
    for s in sorted(enumerate_language(h, depth - 1)):
        for event in sorted(g.alphabet.events):
            if s + (event,) not in k:
                continue
            witness_found = False
            for t in phi[s]:
                bad = False
                for s2 in lg:
                    if t not in phi[s2]:
                        continue
                    if s2 in k and s2 + (event,) in lg and s2 + (event,) not in k:
                        bad = True
                        break
                if not bad:
                    witness_found = True
                    break
            if not witness_found:
                return False
    return True


class TestObservability:
    def test_corpus_holds_to_depth_nine(self, cycle_beta):
        verdict = check_ca_observability_bounded(
            cycle_beta.plant, cycle_beta.spec, cycle_beta.policy, depth=9
        )
        assert verdict.status == "holds-to-depth"
        assert verdict.depth == 9

    def test_no_attacks_unique_observations_hold(self):
        rng = random.Random(8)
        checked = 0
        while checked < 5:
            g, _ = random_model(rng)
            if g.alphabet.sensor_attackable or g.alphabet.unobservable:
                continue
            checked += 1
            h = random_spec(rng, g)
            verdict = check_ca_observability_bounded(g, h, SensorAttackPolicy.empty(), depth=5)
            assert verdict.holds

    def test_indistinguishable_strings_with_conflicting_futures_fail(self, cycle):
        # Two spec states share every observation (lambda may be erased), but
        # only one of them may continue with mu.
        alphabet = cycle.alphabet
        plant = Automaton(
            states={"0", "1", "2", "bad"},
            alphabet=alphabet,
            transitions={
                ("0", "lambda", "1"),
                ("0", "mu", "2"),
                ("1", "mu", "bad"),
            },
            initial="0",
        )
        erase = Automaton(
            states={"e"}, alphabet=alphabet, transitions=set(), initial="e", marked={"e"}
        )
        passthrough = Automaton(
            states={"i", "f"},
            alphabet=alphabet,
            transitions={("i", "mu", "f")},
            initial="i",
            marked={"f"},
        )
        policy = SensorAttackPolicy.from_transitions(
            {
                ("0", "lambda", "1"): erase,
                ("0", "mu", "2"): passthrough,
                ("1", "mu", "bad"): passthrough,
            }
        )
        from descat import sub_automaton

        h = sub_automaton(plant, {"0", "1", "2"})
        verdict = check_ca_observability_bounded(plant, h, policy, depth=4)
        assert verdict.status == "fails"
        assert verdict.counterexample.event == "mu"

    def test_matches_literal_definition_on_corpus(self, cycle_beta):
        for depth in (3, 5, 7):
            verdict = check_ca_observability_bounded(
                cycle_beta.plant, cycle_beta.spec, cycle_beta.policy, depth=depth
            )
            literal = def4_literal_check(
                cycle_beta.plant, cycle_beta.spec, cycle_beta.policy, depth, 3 * depth + 2
            )
            assert verdict.holds == literal

    def test_builds_only_the_observer_states_its_search_reaches(self, monkeypatch):
        import descat

        # A model whose check walks all three levels, and one whose exact check fails, each on a spec
        # observer of more than 50 states.
        rng = random.Random(1501)
        models = []
        for depth, holds in ((3, True), (None, False)):
            while True:
                g, policy = random_model(rng, max_states=30)
                h = random_spec(rng, g)
                # On an equal but distinct policy, so that the check below finds no observer built.
                twin = SensorAttackPolicy(entries=policy.entries)
                built = len(build_ca_observer(h, twin.restricted_to(h)[0]).observer.states)
                expected = observability_by_name_sets(g, h, twin, depth)
                if built > 50 and expected.holds == holds:
                    break
            models.append((g, h, policy, depth, built, expected))
        calls = []
        for name in ("_observer", "_determinize"):
            for module in (descat.automata, descat.attacks, descat.estimation):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        walks = []
        fetch = descat.verification._observer_walk
        monkeypatch.setattr(descat.verification, "_observer_walk", lambda *args: walks.append(fetch(*args)) or walks[-1])
        for g, h, policy, depth, built, expected in models:
            walks.clear()
            verdict = check_ca_observability_bounded(g, h, policy, depth)
            assert calls == []
            assert verdict.as_dict() == expected.as_dict()
            # The walk builds rows in table order up to the last one the search reads, and numbers the
            # subsets they move to; it is never completed.
            (walk,) = walks
            assert 0 < len(walk.masks) < built
            assert list(walk) == list(range(len(walk))) and "table" not in vars(walk)

    def test_the_default_is_exact_on_random_models(self):
        """Without a depth the search saturates: the saturated oracle's verdict, and every explicit depth's answer.

        A failing verdict's string and event are those of every depth above
        the witness's length, and below it the search holds to that depth; a
        holding verdict holds to every depth.
        """
        rng = random.Random(2207)
        counts = {"holds": 0, "fails at the empty string": 0, "fails later": 0, "cyclic": 0, "strategy": 0}
        for i in range(150):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            strategy = random_strategy(rng, g)
            for attack in (policy, strategy) if strategy is not None else (policy,):
                exact = check_ca_observability_bounded(g, h, attack)
                assert exact.as_dict() == observability_by_name_sets(g, h, attack).as_dict()
                assert exact.status in ("holds", "fails") and exact.depth is None
                if exact.holds:
                    counts["holds"] += 1
                    cuts = {depth: None for depth in (*range(1, 7), 10**6)}
                else:
                    length = len(exact.counterexample.string)
                    counts["fails later" if length else "fails at the empty string"] += 1
                    cuts = {depth: exact.counterexample if depth > length else None for depth in range(1, length + 5)}
                for depth, counterexample in cuts.items():
                    status = "holds-to-depth" if counterexample is None else "fails"
                    cut = check_ca_observability_bounded(g, h, attack, depth)
                    assert (cut.status, cut.counterexample, cut.depth) == (status, counterexample, depth)
                counts["cyclic"] += attack is policy and i % 2 == 1
                counts["strategy"] += attack is strategy
        assert min(counts.values()) >= 10, counts

    @pytest.mark.parametrize("depth", [3, 5])
    def test_matches_enumeration_on_random_models(self, depth):
        rng = random.Random(500 + depth)
        for _ in range(150):
            g, policy = random_model(rng, acyclic_attacks=True)
            h = random_spec(rng, g)
            assert (
                check_ca_observability_bounded(g, h, policy, depth).as_dict()
                == observability_by_enumeration(g, h, policy, depth).as_dict()
            )


class TestLargeLanguage:
    def test_corpus_closed_loop_generates_exactly_the_spec(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        lla = large_language_automaton(cycle_beta.plant, sup, cycle_beta.policy)
        for d in range(9):
            assert enumerate_language(lla.automaton, d) == enumerate_language(cycle_beta.spec, d)
        verdict = verify_large_language_equals(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy
        )
        assert verdict.status == "holds"

    def test_permissive_supervisor_without_attacks_generates_plant(self):
        rng = random.Random(15)
        checked = 0
        while checked < 5:
            g, _ = random_model(rng)
            if g.alphabet.sensor_attackable:
                continue
            checked += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sup = synthesize_ca_supervisor(g, g, SensorAttackPolicy.empty())
            lla = large_language_automaton(
                g, sup, SensorAttackPolicy.empty(), actuator_attackable=frozenset()
            )
            assert enumerate_language(lla.automaton, 6) == enumerate_language(g, 6)

    def test_brute_force_base_case(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        assert brute_force_large_language(cycle_beta.plant, sup, cycle_beta.policy, depth=0) == {
            ()
        }

    def test_everything_disabled_yields_empty_string_only(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        for state in sup.controls:
            sup = sup.with_control(state, frozenset())
        out = brute_force_large_language(
            cycle_beta.plant, sup, cycle_beta.policy, depth=5, actuator_attackable=frozenset()
        )
        assert out == {()}

    def test_corpus_brute_force_prefixes(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        out = brute_force_large_language(cycle_beta.plant, sup, cycle_beta.policy, depth=6)
        assert out == enumerate_language(cycle_beta.spec, 6)

    def test_product_equals_brute_force_on_random_models(self):
        rng = random.Random(616)
        for _ in range(20):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            sup = random_supervisor(rng, g, h, policy)
            lla = large_language_automaton(g, sup, policy)
            assert enumerate_language(lla.automaton, 6) == brute_force_large_language(
                g, sup, policy, depth=6
            )

    def test_rejects_non_estimate_based_supervisors(self, cycle_beta):
        with pytest.raises(UnsupportedSupervisorError):
            large_language_automaton(
                cycle_beta.plant, object(), cycle_beta.policy
            )


class TestVerifyEquality:
    def test_shrunken_control_fails_with_witness(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        # drop lambda everywhere: the loop can no longer continue past alpha
        for state in sup.controls:
            sup = sup.with_control(state, sup.controls[state] - {"lambda"})
        verdict = verify_large_language_equals(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy
        )
        assert verdict.status == "fails"
        assert verdict.counterexample is not None
        assert verdict.counterexample.event == "lambda"

    def test_trivial_setup_holds(self):
        rng = random.Random(17)
        checked = 0
        while checked < 5:
            g, _ = random_model(rng)
            if g.alphabet.sensor_attackable:
                continue
            checked += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sup = synthesize_ca_supervisor(g, g, SensorAttackPolicy.empty())
            verdict = verify_large_language_equals(
                g, g, sup, SensorAttackPolicy.empty(), actuator_attackable=frozenset()
            )
            assert verdict.holds

    @pytest.mark.parametrize("actuator_attackable", [None, frozenset()])
    def test_counterexamples_are_shortest_against_brute_force(self, actuator_attackable):
        rng = random.Random(718)
        for _ in range(100):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            sup = random_supervisor(rng, g, h, policy)
            verdict = verify_large_language_equals(
                g, h, sup, policy, actuator_attackable=actuator_attackable
            )
            depth = 6 if verdict.holds else len(verdict.counterexample.string) + 1
            large = brute_force_large_language(
                g, sup, policy, depth, actuator_attackable=actuator_attackable
            )
            spec = enumerate_language(h, depth)
            if verdict.holds:
                assert large == spec
                continue
            ce = verdict.counterexample
            extended = ce.string + (ce.event,)
            assert ce.string in large and ce.string in spec
            if ce.witness.startswith("generated by the closed loop"):
                assert extended in large and extended not in spec
            else:
                assert extended in spec and extended not in large
            shorter = len(ce.string)
            assert {s for s in large if len(s) <= shorter} == {s for s in spec if len(s) <= shorter}


class TestSpecGuard:
    """Verify keeps no spec state: the spec's moves are checked against the plant's where the walk reaches them."""

    def test_specs_off_the_plant_get_the_oracles_verdict_or_an_input_error(self):
        rng = random.Random(1931)
        counts = {"induced": 0, "dropped": 0, "redirected same": 0, "redirected raised": 0}
        for i in range(300):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            sup = random_supervisor(rng, g, h, policy)
            verdict = lambda spec: verify_large_language_equals(g, spec, sup, policy).as_dict()
            oracle = lambda spec: verify_by_name_sets(g, spec, sup, policy).as_dict()
            assert verdict(h) == oracle(h)
            counts["induced"] += 1
            if not h.transitions:
                continue
            moves = sorted(h.transitions)
            src, event, dst = rng.choice(moves)
            dropped = _with_transitions(h, h.transitions - {(src, event, dst)})
            assert verdict(dropped) == oracle(dropped)
            counts["dropped"] += 1
            # A move out of the initial state is always reached: the walk expands that state first.
            initial = [move for move in moves if move[0] == h.initial]
            src, event, dst = rng.choice(initial if i % 4 == 0 and initial else moves)
            targets = sorted(h.states - {dst})
            if not targets:
                continue
            redirected = _with_transitions(h, h.transitions - {(src, event, dst)} | {(src, event, rng.choice(targets))})
            try:
                found = verdict(redirected)
            except InputError as error:
                assert str(error) == "the specification must be a sub-automaton of the plant"
                counts["redirected raised"] += 1
                continue
            assert src != h.initial
            assert found == oracle(redirected)
            counts["redirected same"] += 1
        assert min(counts.values()) >= 10, counts

    def test_a_spec_from_another_initial_state_is_an_input_error(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        spec = cycle_beta.spec
        moved = Automaton(states=spec.states, alphabet=spec.alphabet, transitions=spec.transitions, initial="2")
        with pytest.raises(InputError, match="must be a sub-automaton of the plant"):
            verify_large_language_equals(cycle_beta.plant, moved, sup, cycle_beta.policy)


def _with_transitions(a: Automaton, transitions) -> Automaton:
    return Automaton(states=a.states, alphabet=a.alphabet, transitions=transitions, initial=a.initial, marked=a.marked)


class TestNameSetOracle:
    """The bitmask arena against the walk on frozensets of observer-state names."""

    @staticmethod
    def setups():
        """Random supervisors, and the synthesized ones the command line verifies, under policies and strategies."""
        rng = random.Random(1121)
        for i in range(200):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            yield g, h, policy, random_supervisor(rng, g, h, policy), None
            strategy = random_strategy(rng, g)
            if strategy is not None:
                yield g, h, strategy, random_supervisor(rng, g, h, strategy), frozenset()
            attack = policy if strategy is None or i % 2 == 0 else strategy
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                yield g, h, attack, synthesize_ca_supervisor(g, h, attack), None

    def test_all_three_searches_match_on_random_models(self):
        statuses = {"holds": 0, "fails": 0}
        largest = 0
        # Arenas whose masks all hold one observer state, and arenas with a larger mask: both step paths run.
        widths = {"single": 0, "multi": 0}
        for g, h, attack, sup, att in self.setups():
            verdict = verify_large_language_equals(g, h, sup, attack, actuator_attackable=att)
            assert verdict.as_dict() == verify_by_name_sets(g, h, sup, attack, att).as_dict()
            statuses[verdict.status] += 1
            lla = large_language_automaton(g, sup, attack, actuator_attackable=att)
            oracle = large_language_by_name_sets(g, sup, attack, att)
            assert lla.automaton == oracle.automaton
            assert lla.components == oracle.components
            width = max(len(tracked) for _, tracked in lla.components.values())
            widths["single" if width == 1 else "multi"] += 1
            largest = max(largest, width)
            for depth in (1, 3, None):
                assert (
                    check_ca_observability_bounded(g, h, attack, depth).as_dict()
                    == observability_by_name_sets(g, h, attack, depth).as_dict()
                )
        assert min(statuses.values()) >= 20
        assert largest >= 2
        assert min(widths.values()) >= 20, widths


class TestQuotient:
    """Verify walks the classes of the supervisor's observer by control and row, built at the walk's first step."""

    @staticmethod
    def check_quotient(rows, controls):
        """``_quotient``'s classes against the pairwise oracle's; returns how many classes there are."""
        classes, class_rows, class_controls = _quotient(SimpleNamespace(rows=rows), controls)
        members = {}
        for i, c in enumerate(classes):
            members.setdefault(c, set()).add(i)
        assert sorted(map(frozenset, members.values()), key=min) == quotient_by_pairs(rows, controls)
        assert classes[0] == 0 and sorted(members) == list(range(len(class_rows))) == list(range(len(class_controls)))
        for i, row in enumerate(rows):
            assert controls[i] == class_controls[classes[i]]
            assert {label: classes[j] for label, j in row.items()} == class_rows[classes[i]]
        return len(class_rows)

    def test_classes_match_pairwise_refinement_on_random_tables(self):
        rng = random.Random(2104)
        merged = one_state = 0
        for _ in range(400):
            n = rng.choice([1, 1, 2, 3, 5, 8, 12])
            # Half the tables unfold a smaller one: state i copies base state image[i], so some states merge.
            k = rng.randint(1, n) if rng.random() < 0.5 else n
            image = [i % k for i in range(n)]
            rng.shuffle(image)
            copies = [[i for i in range(n) if image[i] == b] for b in range(k)]
            base = [{label: rng.randrange(k) for label in "xyz" if rng.random() < 0.7} for _ in range(k)]
            rows = [{label: rng.choice(copies[b]) for label, b in base[image[i]].items()} for i in range(n)]
            # Equal controls as distinct objects, as with_control makes them.
            values = [rng.choice(["a", "ab", "abc"][: rng.randint(1, 3)]) for _ in range(k)]
            controls = [frozenset(values[image[i]]) for i in range(n)]
            merged += self.check_quotient(rows, controls) < n
            one_state += n == 1
        assert merged >= 100 and one_state >= 50, (merged, one_state)

    def test_classes_match_pairwise_refinement_on_supervisors(self):
        rng = random.Random(2105)
        merged = 0
        for i in range(60):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            sup = random_supervisor(rng, g, h, policy)
            merged += self.check_quotient(sup.observer.table.rows, sup.control_table) < len(sup.control_table)
        assert merged >= 10, merged

    def test_verify_matches_the_unreduced_oracle_on_random_models(self, monkeypatch):
        """Policies with acyclic and cyclic corruption, strategies, and mutants that fail after one or more events."""
        built = []
        monkeypatch.setattr(descat.verification, "_quotient", lambda *a: built.append(_quotient(*a)) or built[-1])
        rng = random.Random(2106)
        counts = {"holds": 0, "fails at the initial node": 0, "fails later": 0, "merged": 0, "strategy": 0}
        for i in range(150):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            attacks = [(policy, None)]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append((strategy, frozenset()))
            for attack, att in attacks:
                for sup in (random_supervisor(rng, g, h, attack), random_supervisor(rng, g, h, attack)):
                    built.clear()
                    verdict = verify_large_language_equals(g, h, sup, attack, actuator_attackable=att)
                    assert verdict.as_dict() == verify_by_name_sets(g, h, sup, attack, att).as_dict()
                    assert len(built) <= 1
                    if verdict.holds:
                        counts["holds"] += 1
                    elif verdict.counterexample.string:
                        assert len(built) == 1
                        counts["fails later"] += 1
                    else:
                        assert not built
                        counts["fails at the initial node"] += 1
                    counts["merged"] += bool(built) and len(built[0][1]) < len(sup.control_table)
                    counts["strategy"] += attack is strategy
        assert min(counts.values()) >= 30, counts

    def test_a_verify_failing_at_the_initial_node_builds_no_quotient(self, monkeypatch, cycle):
        calls = []
        monkeypatch.setattr(descat.verification, "_quotient", lambda *a: calls.append(a) or _quotient(*a))
        g, h, policy = cycle.plant, cycle.spec, cycle.policy
        sup = synthesize_ca_supervisor(g, h, policy)
        # Nothing enabled at the initial observer state: the spec's first event is missing at the initial node.
        stuck = sup.with_control(sup.observer.table.names[0], g.alphabet.uncontrollable)
        verdict = verify_large_language_equals(g, h, stuck, policy, actuator_attackable=frozenset())
        assert (verdict.counterexample.string, calls) == ((), [])
        # The synthesized supervisor fails one event later, after the walk's first step.
        verdict = verify_large_language_equals(g, h, sup, policy)
        assert (verdict.counterexample.string, len(calls)) == (("alpha",), 1)


class TestSolvability:
    """The paper's theorem: the attacked problem is solvable iff the spec is CA-controllable and CA-observable."""

    def test_the_synthesized_supervisor_verifies_iff_both_checks_hold(self):
        rng = random.Random(2208)
        outcomes = {(c, o): 0 for c in (True, False) for o in (True, False)}
        for i in range(300):
            g, policy = random_model(rng, acyclic_attacks=i % 2 == 0)
            h = random_spec(rng, g)
            strategy = random_strategy(rng, g)
            for attack in (policy, strategy) if strategy is not None else (policy,):
                controllable = check_ca_controllability(g, h).holds
                observable = check_ca_observability_bounded(g, h, attack).holds
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    supervisor = synthesize_ca_supervisor(g, h, attack)
                assert verify_large_language_equals(g, h, supervisor, attack).holds == (controllable and observable)
                outcomes[controllable, observable] += 1
        assert min(outcomes.values()) >= 5, outcomes


class TestSimulationAgreement:
    def test_simulated_strings_stay_in_large_language(self, cycle_beta):
        from descat import AttackerStrategy, simulate

        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        bf = brute_force_large_language(cycle_beta.plant, sup, cycle_beta.policy, depth=6)
        for seed in range(25):
            trace = simulate(
                cycle_beta.plant,
                cycle_beta.spec,
                sup,
                cycle_beta.policy,
                attacker=AttackerStrategy.random_choices(),
                max_steps=6,
                seed=seed,
            )
            assert trace.plant_string in bf


class TestEitherAttack:
    """The three attacked checks take a strategy as synthesis and simulation do."""

    @staticmethod
    def strategy_setups():
        doc = load_model(MODELS / "cycle_obs.des")
        g, h, strategy = doc.plant, doc.spec_automaton(), doc.strategy()
        yield g, h, strategy, synthesize_ca_supervisor(g, h, strategy)
        rng = random.Random(909)
        found = 0
        while found < 40:
            g, _ = random_model(rng)
            strategy = random_strategy(rng, g)
            if strategy is None:
                continue
            found += 1
            h = random_spec(rng, g)
            yield g, h, strategy, random_supervisor(rng, g, h, strategy)

    def test_strategy_equals_its_transition_based_setup(self):
        statuses = {"holds": 0, "fails": 0}
        for g, h, strategy, sup in self.strategy_setups():
            sg, sh, policy = transition_based_setup(g, h, strategy)
            for depth in (1, 3, None):
                assert (
                    check_ca_observability_bounded(g, h, strategy, depth).as_dict()
                    == check_ca_observability_bounded(sg, sh, policy, depth).as_dict()
                )
            verdict = verify_large_language_equals(g, h, sup, strategy)
            assert verdict.as_dict() == verify_large_language_equals(sg, sh, sup, policy).as_dict()
            statuses[verdict.status] += 1
            direct, set_up = large_language_automaton(g, sup, strategy), large_language_automaton(sg, sup, policy)
            assert direct.automaton == set_up.automaton
            assert direct.components == set_up.components
        assert min(statuses.values()) >= 5

    def test_invalid_policy_raises_the_same_error_everywhere(self, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        entries = dict(cycle_beta.policy.entries)
        del entries[("2", "lambda", "3")]
        bad = SensorAttackPolicy.from_transitions(entries)
        message = (
            "invalid sensor attack policy: transition ('2', 'lambda', '3') "
            "carries attackable event 'lambda' but has no attack language"
        )
        calls = [
            lambda: check_ca_observability_bounded(cycle_beta.plant, cycle_beta.spec, bad, depth=5),
            lambda: check_ca_observability_bounded(cycle_beta.plant, cycle_beta.spec, bad),
            lambda: large_language_automaton(cycle_beta.plant, sup, bad),
            lambda: verify_large_language_equals(cycle_beta.plant, cycle_beta.spec, sup, bad),
        ]
        for call in calls:
            with pytest.raises(InputError) as info:
                call()
            assert str(info.value) == message


class TestOneValidityRule:
    def test_a_policy_missing_an_entry_is_rejected_alike_by_every_entry_point(self):
        """Every entry point validates the whole policy on the plant, then restricts it to the spec.

        The second model drawn from seed 67 attacks ``('q0', 'b', 'q4')``, a
        transition into an unsafe state; without its entry the policy does not
        cover the plant, though it covers the spec.
        """
        rng = random.Random(67)
        for _ in range(2):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
        missing = ("q0", "b", "q4")
        assert missing in policy.entries and missing[2] not in h.states
        lacking = SensorAttackPolicy.from_transitions({tr: f for tr, f in policy.entries.items() if tr != missing})
        with pytest.warns(UserWarning, match="outside the specification"):
            supervisor = synthesize_ca_supervisor(g, h, policy)
        calls = {
            "check": lambda: check_ca_observability_bounded(g, h, lacking),
            "synthesize": lambda: synthesize_ca_supervisor(g, h, lacking),
            "verify": lambda: verify_large_language_equals(g, h, supervisor, lacking),
            "large language": lambda: large_language_automaton(g, supervisor, lacking),
        }
        errors = {}
        for name, call in calls.items():
            with pytest.raises(InputError) as raised:
                call()
            errors[name] = str(raised.value)
        assert set(errors.values()) == {
            "invalid sensor attack policy: transition ('q0', 'b', 'q4') carries attackable event 'b' "
            "but has no attack language"
        }
