"""The per-object memo of attack policies and strategies.

A policy or strategy keeps what it has worked out about a plant (its
problems, the conversion, the transition-based setup, a spec's
CA-observer and the check's step memos beside it), so a repeat call must
answer exactly as a call on a fresh, equal attack object does.
"""

import random
import warnings

import pytest

import descat.attacks
import descat.estimation
import descat.verification
from descat import (
    AttackerStrategy,
    Automaton,
    DescatError,
    EventAlphabet,
    InputError,
    ObservationAttackStrategy,
    SensorAttackPolicy,
    check_ca_observability_bounded,
    convert_observation_based,
    large_language_automaton,
    run_campaign,
    simulate,
    synthesize_ca_supervisor,
    transition_based_setup,
    validate_policy,
    validate_strategy,
    verify_large_language_equals,
)
from conftest import random_attack_automaton, random_model, random_spec, random_strategy, random_supervisor


def _counting(monkeypatch, name: str, module=descat.attacks) -> list:
    """Count the calls of ``<module>.<name>``; the list's length is the count."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _twin(g: Automaton) -> Automaton:
    """An equal plant that is a distinct object."""
    twin = Automaton(states=g.states, alphabet=g.alphabet, transitions=g.transitions, initial=g.initial, marked=g.marked)
    assert twin == g and twin is not g
    return twin


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return "ok", call()
    except DescatError as exc:
        return type(exc), str(exc)


def _conversion_view(conversion):
    return conversion.product, list(conversion.pairs.items()), list(conversion.policy.entries.items())


def _setup_view(setup):
    g, h, policy = setup
    return g, h, list(policy.entries.items())


def _fresh_policy(policy: SensorAttackPolicy) -> SensorAttackPolicy:
    return SensorAttackPolicy(entries=policy.entries)


def _fresh_strategy(strategy: ObservationAttackStrategy) -> ObservationAttackStrategy:
    return ObservationAttackStrategy(sa=strategy.sa, omega=strategy.omega)


def _fresh_attack(attack):
    return _fresh_strategy(attack) if isinstance(attack, ObservationAttackStrategy) else _fresh_policy(attack)


def _same_on_repeat_twin_and_fresh(call, attack, fresh, g, view=lambda value: value):
    """``call(plant, attack)`` answers alike on a first and repeat call, on an equal plant and on a fresh attack."""
    expected = _outcome(lambda: view(call(g, fresh(attack))))
    for plant in (g, g, _twin(g)):
        assert _outcome(lambda: view(call(plant, attack))) == expected
    return expected


class TestCounters:
    def test_a_sweep_and_a_campaign_compose_once(self, monkeypatch, cycle_beta, cycle_strategy):
        supervisor = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_strategy)
        # Synthesis has converted ``cycle_strategy`` on the plant already; an equal, fresh strategy has not.
        strategy = _fresh_strategy(cycle_strategy)
        composed = _counting(monkeypatch, "parallel_compose_pairs")
        for depth in (2, 3, 4):
            simulate(
                cycle_beta.plant, cycle_beta.spec, supervisor, strategy,
                attacker=AttackerStrategy.exhaustive(), max_steps=depth,
            )
        run_campaign(cycle_beta.plant, cycle_beta.spec, supervisor, strategy, trials=3, max_steps=10)
        assert len(composed) == 1

    def test_two_verifies_validate_the_corruption_automata_once(self, monkeypatch, cycle_beta):
        supervisor = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        # Synthesis has validated ``cycle_beta.policy`` on the plant already; an equal, fresh policy has not.
        policy = _fresh_policy(cycle_beta.policy)
        checked = _counting(monkeypatch, "validate_automaton")
        first = verify_large_language_equals(cycle_beta.plant, cycle_beta.spec, supervisor, policy)
        assert len(checked) == len(set(policy.entries.values())) > 0
        assert verify_large_language_equals(cycle_beta.plant, cycle_beta.spec, supervisor, policy) == first
        assert len(checked) == len(set(policy.entries.values()))


class TestIdentity:
    """A policy keeps one object per distinct corruption automaton, and the closed loop steps each once."""

    def test_equal_corruption_automata_come_back_as_one_object(self, cycle):
        (tr1, f), (tr2, _) = sorted(cycle.policy.entries.items())[:2]
        twin, other = _twin(f), _twin(cycle.f2 if f != cycle.f2 else cycle.f1)
        assert other != f
        policy = SensorAttackPolicy(entries={tr1: f, tr2: twin})
        assert policy.entries[tr1] is policy.entries[tr2] is f
        assert len(policy.automata) == 1 and policy.automata[0] is f
        restricted, _ = policy.restricted_to(cycle.plant)
        assert restricted.entries[tr2] is f
        uniform = SensorAttackPolicy.uniform(cycle.plant, {tr1[1]: twin}, overrides={tr2: f})
        assert uniform.entries[tr1] is uniform.entries[tr2] is twin
        policy = SensorAttackPolicy(entries={tr1: f, tr2: other})
        assert policy.entries[tr2] is other

    def test_the_closed_loop_corrupts_once_per_distinct_language(self, monkeypatch):
        """An observation-based attack whose omega blocks are equal but distinct objects, as parsed ones are."""
        calls = []
        corrupt = descat.verification._ObserverStepRelation._corrupt

        def counted(self, f, i):
            calls.append((f, i))
            return corrupt(self, f, i)

        monkeypatch.setattr(descat.verification._ObserverStepRelation, "_corrupt", counted)
        rng = random.Random(1205)
        shared = 0
        for _ in range(60):
            g, _ = random_model(rng)
            strategy = random_strategy(rng, g)
            if strategy is None:
                continue
            languages = [random_attack_automaton(rng, g.alphabet, acyclic=rng.random() < 0.5) for _ in range(2)]
            omega = {key: _twin(rng.choice(languages)) for key in sorted(strategy.omega)}
            strategy = ObservationAttackStrategy(sa=strategy.sa, omega=omega)
            h = random_spec(rng, g)
            supervisor = synthesize_ca_supervisor(g, h, strategy)
            calls.clear()
            verify_large_language_equals(g, h, supervisor, strategy)
            assert len(calls) == len(set(calls))
            assert len({id(f) for f, _ in calls}) == len({f for f, _ in calls}) <= 2
            shared += len({id(f) for f in omega.values()}) > len({f for f, _ in calls}) > 0
        assert shared >= 10


class TestSoundness:
    """A repeat call, a call on an equal plant and a call on a fresh attack all agree."""

    def test_transition_based(self):
        rng = random.Random(1201)
        seen = {"valid": 0, "invalid": 0, "cyclic": 0}
        for _ in range(200):
            cyclic = rng.random() < 0.5
            g, policy = random_model(rng, acyclic_attacks=not cyclic)
            h = random_spec(rng, g)
            entries = dict(policy.entries)
            if entries and rng.random() < 0.3:
                del entries[rng.choice(sorted(entries))]
            if rng.random() < 0.2:
                entries[("q0", "zz", "q1")] = random_attack_automaton(rng, g.alphabet, acyclic=True)
            policy = SensorAttackPolicy(entries=entries)
            problems = _same_on_repeat_twin_and_fresh(validate_policy, policy, _fresh_policy, g)[1]
            for spec in (h, None):
                _same_on_repeat_twin_and_fresh(
                    lambda plant, attack: transition_based_setup(plant, spec, attack), policy, _fresh_policy, g, _setup_view
                )
            restricted, dropped = policy.restricted_to(h)
            again, dropped_again = policy.restricted_to(_twin(h))
            assert again is restricted and dropped_again == dropped
            # A restriction that drops nothing is the policy itself, which its memo does not refer to.
            assert (restricted is policy) == (not dropped)
            assert policy not in (policy._memo["restricted", h] or ())
            assert list(restricted.entries.items()) == list(_fresh_policy(policy).restricted_to(h)[0].entries.items())
            returned = validate_policy(g, policy)
            returned.append("not a problem")
            assert validate_policy(g, policy) == problems
            seen["invalid" if problems else "valid"] += 1
            seen["cyclic"] += cyclic and bool(policy.entries)
        assert min(seen.values()) >= 40, seen

    def test_observation_based(self):
        rng = random.Random(1202)
        seen = {"valid": 0, "invalid": 0, "cyclic": 0}
        checked = 0
        while checked < 200:
            g, _ = random_model(rng)
            intact = random_strategy(rng, g)
            if intact is None:
                continue
            checked += 1
            h = random_spec(rng, g)
            cyclic = rng.random() < 0.5
            omega = {
                key: random_attack_automaton(rng, g.alphabet, acyclic=False) if cyclic else f
                for key, f in sorted(intact.omega.items())
            }
            sa = intact.sa
            if omega and rng.random() < 0.2:
                del omega[rng.choice(sorted(omega))]
            if rng.random() < 0.2:
                kept = frozenset(t for t in sorted(sa.transitions) if rng.random() < 0.8)
                sa = Automaton(states=sa.states, alphabet=sa.alphabet, transitions=kept, initial=sa.initial)
            strategy = ObservationAttackStrategy(sa=sa, omega=omega)
            problems = _same_on_repeat_twin_and_fresh(validate_strategy, strategy, _fresh_strategy, g)[1]
            _same_on_repeat_twin_and_fresh(
                convert_observation_based, strategy, _fresh_strategy, g, _conversion_view
            )
            for spec in (h, None):
                _same_on_repeat_twin_and_fresh(
                    lambda plant, attack: transition_based_setup(plant, spec, attack),
                    strategy, _fresh_strategy, g, _setup_view,
                )
            returned = validate_strategy(g, strategy)
            returned.append("not a problem")
            assert validate_strategy(g, strategy) == problems
            seen["invalid" if problems else "valid"] += 1
            seen["cyclic"] += cyclic
        assert min(seen.values()) >= 40, seen

    def test_an_invalid_attack_raises_the_same_error_every_time(self, cycle_beta, cycle_strategy):
        plant = cycle_beta.plant
        broken_policy = SensorAttackPolicy(entries={})
        broken_strategy = ObservationAttackStrategy(sa=cycle_strategy.sa, omega={})
        for attack in (broken_policy, broken_strategy):
            first = _outcome(lambda: transition_based_setup(plant, cycle_beta.spec, attack))
            assert first[0] != "ok"
            for _ in range(2):
                assert _outcome(lambda: transition_based_setup(plant, cycle_beta.spec, attack)) == first
        first = _outcome(lambda: convert_observation_based(plant, broken_strategy))
        assert "no corruption language for reachable context pair" in first[1]
        assert _outcome(lambda: convert_observation_based(plant, broken_strategy)) == first


class TestReadOnly:
    def test_entries_omega_and_pairs_reject_assignment(self, cycle_beta, cycle_strategy):
        policy = cycle_beta.policy
        tr = next(iter(policy.entries))
        with pytest.raises(TypeError):
            policy.entries[tr] = cycle_beta.f2
        with pytest.raises(TypeError):
            cycle_strategy.omega[("z1", "alpha")] = cycle_beta.f2
        conversion = convert_observation_based(cycle_beta.plant, cycle_strategy)
        with pytest.raises(TypeError):
            conversion.pairs["x"] = ("1", "z1")
        with pytest.raises(TypeError):
            conversion.policy.entries[tr] = cycle_beta.f2

    def test_the_given_mapping_is_copied(self, cycle_beta):
        entries = dict(cycle_beta.policy.entries)
        policy = SensorAttackPolicy(entries=entries)
        assert validate_policy(cycle_beta.plant, policy) == []
        entries.clear()
        assert validate_policy(cycle_beta.plant, policy) == []
        assert dict(policy.entries) == dict(cycle_beta.policy.entries)

    def test_the_dropped_entries_warning_fires_on_every_synthesis(self):
        rng = random.Random(1203)
        while True:
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            if policy.restricted_to(h)[1]:
                break
        for _ in range(2):
            with pytest.warns(UserWarning, match="outside the specification were ignored"):
                synthesize_ca_supervisor(g, h, policy)


class TestNamesAtTheEdges:
    """Synthesis, verify and simulation step observer states as table numbers; only output names them."""

    @pytest.fixture
    def named(self, monkeypatch):
        """The observer-state lists the naming helper has built."""
        import descat.automata

        calls = []
        original = descat.automata._subset_names
        monkeypatch.setattr(descat.automata, "_subset_names", lambda *args: calls.append(args) or original(*args))
        return calls

    def test_verify_and_simulation_name_no_observer_state(self, named, cycle, cycle_beta, cycle_strategy):
        for model, attack, holds in (
            (cycle_beta, cycle_beta.policy, True),
            (cycle_beta, cycle_strategy, True),
            (cycle, cycle.policy, False),
        ):
            sup = synthesize_ca_supervisor(model.plant, model.spec, attack)
            verdict = verify_large_language_equals(model.plant, model.spec, sup, attack)
            assert verdict.holds == holds
            report = run_campaign(model.plant, model.spec, sup, attack, trials=3, max_steps=20)
            assert report.observer_states_total == len(sup.observer.table.masks)
            simulate(model.plant, model.spec, sup, attack, attacker=AttackerStrategy.exhaustive(), max_steps=6)
            assert named == []
            assert not vars(sup.observer.table).keys() & {"names", "index", "automaton", "members"}
            assert not vars(sup).keys() & {"controls", "estimates"}

    def test_the_supervisor_table_names_them(self, named, capsys):
        from pathlib import Path

        from descat.cli import main

        model = Path(__file__).resolve().parent.parent / "models" / "cycle_beta_only.des"
        assert main(["synthesize", str(model)]) == 0
        assert "{2,3,tr0/A,tr1/D}" in capsys.readouterr().out
        assert len(named) == 1


class TestSubAutomatonAnswer:
    """The plant/spec relation is worked out once per (plant, spec) pair and kept on the spec."""

    def test_the_checks_and_synthesis_check_one_pair_once(self, monkeypatch, cycle, cycle_beta):
        import descat.automata

        calls = _counting(monkeypatch, "is_subautomaton", descat.automata)
        for model in (cycle, cycle_beta):
            g, h = _twin(model.plant), _twin(model.spec)
            for depth in (3, 6):
                descat.verification.check_ca_controllability(g, h)
                check_ca_observability_bounded(g, h, model.policy, depth=depth)
                synthesize_ca_supervisor(g, h, model.policy)
            synthesize_ca_supervisor(_twin(g), h, model.policy)  # an equal plant
        assert len(calls) == 2


class TestPreamble:
    """The spec observer's preamble is built once per (spec, restricted policy); the check and synthesis share it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Calls of the substitution and of the numbering-and-closure step that make up the preamble."""
        return (
            _counting(monkeypatch, "_substitute", descat.estimation),
            _counting(monkeypatch, "_subset_moves", descat.estimation),
        )

    def test_the_check_and_synthesis_build_it_once(self, built, cycle, cycle_beta):
        substituted, closed = built
        for model in (cycle_beta, cycle):
            policy = _fresh_policy(model.policy)
            substituted.clear()
            closed.clear()
            for depth in (None, 6, None):
                check_ca_observability_bounded(model.plant, model.spec, policy, depth=depth)
                synthesize_ca_supervisor(model.plant, model.spec, policy)
            assert len(substituted) == len(closed) == 1

    def test_a_strategy_builds_one_per_side_once(self, built, cycle_beta, cycle_strategy):
        substituted, closed = built
        strategy = _fresh_strategy(cycle_strategy)
        for _ in range(3):
            check_ca_observability_bounded(cycle_beta.plant, cycle_beta.spec, strategy, depth=6)
            synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, strategy)
        # The check runs on the plant's conversion, synthesis on the spec's own.
        assert len(substituted) == len(closed) == 2

    def test_a_fresh_equal_attack_builds_it_again_to_the_same_answers(self, built):
        _, closed = built
        rng = random.Random(1204)
        seen = {"policy": 0, "strategy": 0, "cyclic": 0}
        for _ in range(100):
            cyclic = rng.random() < 0.5
            g, policy = random_model(rng, acyclic_attacks=not cyclic)
            h = random_spec(rng, g)
            attacks = [(policy, _fresh_policy, "policy")]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append((strategy, _fresh_strategy, "strategy"))
            for attack, fresh, kind in attacks:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    verdict = check_ca_observability_bounded(g, h, attack, depth=4)
                    synthesize_ca_supervisor(g, h, attack)
                    closed.clear()
                    warm = synthesize_ca_supervisor(g, h, attack)
                    assert closed == []
                    cold_attack = fresh(attack)
                    cold = synthesize_ca_supervisor(g, h, cold_attack)
                    assert len(closed) == 1
                    assert check_ca_observability_bounded(g, h, cold_attack, depth=4) == verdict
                assert cold.observer.table == warm.observer.table
                assert (cold.control_table, cold.estimate_table) == (warm.control_table, warm.estimate_table)
                assert (cold.controls, cold.estimates) == (warm.controls, warm.estimates)
                if kind == "policy":
                    warm_walk, cold_walk = (a.restricted_to(h)[0]._memo["observer", h] for a in (attack, cold_attack))
                    assert (warm_walk.bit_names, warm_walk.moves) == (cold_walk.bit_names, cold_walk.moves)
                    assert warm_walk.table == cold_walk.table
                seen[kind] += 1
                seen["cyclic"] += cyclic
        assert min(seen.values()) >= 40, seen

    def test_a_name_clash_raises_again_on_the_next_call(self, built):
        substituted, closed = built
        alphabet = EventAlphabet(
            events={"a", "b"}, controllable={"a", "b"}, observable={"a", "b"}, sensor_attackable={"a"}
        )
        # The corruption automaton's state ``A`` is copied as ``tr0/A``, a name the plant already uses.
        f = Automaton(states={"A", "B"}, alphabet=alphabet, transitions={("A", "a", "B")}, initial="A", marked={"B"})
        g = Automaton(
            states={"0", "tr0/A"}, alphabet=alphabet, transitions={("0", "a", "tr0/A"), ("tr0/A", "b", "0")}, initial="0"
        )
        policy = SensorAttackPolicy(entries={("0", "a", "tr0/A"): f})
        calls = (
            lambda: check_ca_observability_bounded(g, g, policy, depth=3),
            lambda: synthesize_ca_supervisor(g, g, policy),
        )
        outcomes = [_outcome(call) for call in calls + calls]
        assert outcomes[0][0] is InputError and "collide with existing states" in outcomes[0][1]
        assert outcomes == [outcomes[0]] * 4
        assert len(substituted) == 4 and closed == []
        assert not [key for key in policy._memo if key[0] in ("observer", "check")]


class TestOneObserver:
    """One spec observer per (spec, restricted policy): the check reads a prefix, synthesis completes it once.

    The walk is memoised under ``("observer", spec)``; the check's step
    memos and disabled sets under ``("check", plant, spec)`` on the set-up policy.
    """

    @staticmethod
    def models(seed: int, count: int, max_states: int = 6):
        rng = random.Random(seed)
        for i in range(count):
            g, policy = random_model(rng, max_states, acyclic_attacks=i % 2 == 0)
            yield rng, g, random_spec(rng, g), policy

    def test_check_synthesis_and_attacked_observer_build_each_row_once(self, monkeypatch, cycle, cycle_beta):
        import descat.automata
        from descat.estimation import attacked_observer

        rows = _counting(monkeypatch, "_subset_row", descat.automata)
        corpus = [(None, model.plant, model.spec, model.policy) for model in (cycle, cycle_beta)]
        checked = 0
        for _, g, h, policy in corpus + list(self.models(2501, 60, max_states=12)):
            policy = _fresh_policy(policy)
            rows.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                check_ca_observability_bounded(g, h, policy)
                first = synthesize_ca_supervisor(g, h, policy)
                observer, _ = attacked_observer(h, policy)
                second = synthesize_ca_supervisor(g, h, policy)
            assert first.observer is observer is second.observer
            assert sorted(args[1] for args in rows) == sorted(observer.table.masks)
            checked += 1
        assert checked == 62

    def test_a_check_failing_at_the_initial_node_builds_a_breadth_first_prefix(self, monkeypatch):
        import descat.automata

        rows = _counting(monkeypatch, "_subset_row", descat.automata)
        found = smaller = 0
        for _, g, h, policy in self.models(2502, 300, max_states=20):
            policy = _fresh_policy(policy)
            rows.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                verdict = check_ca_observability_bounded(g, h, policy)
                if verdict.holds or verdict.counterexample.string:
                    continue
                built = [args[1] for args in rows]
                walk = policy.restricted_to(h)[0]._memo["observer", h]
                assert "table" not in vars(walk) and list(walk) == list(range(len(built)))
                whole = synthesize_ca_supervisor(g, h, _fresh_policy(policy)).observer.table
            assert built == whole.masks[: len(built)] and walk.masks == whole.masks[: len(walk.masks)]
            smaller += len(built) < len(whole.masks)
            found += 1
        assert found >= 60 and smaller >= found * 3 // 4, (found, smaller)

    def test_each_spec_keeps_its_own_check_memos(self):
        seen = {"holds": 0, "fails": 0}
        for rng, g, h, policy in self.models(2504, 80):
            other = random_spec(rng, g)
            for spec in (h, other, h, other):
                for depth in (3, None):
                    verdict = check_ca_observability_bounded(g, spec, policy, depth)
                    assert verdict == check_ca_observability_bounded(g, spec, _fresh_policy(policy), depth)
                    seen["holds" if verdict.holds else "fails"] += 1
        assert min(seen.values()) >= 100, seen

    def test_a_second_depth_limited_check_computes_no_corruption_step(self, monkeypatch, cycle_beta, cycle_strategy):
        corrupt = descat.verification._ObserverStepRelation._corrupt
        steps = []
        monkeypatch.setattr(
            descat.verification._ObserverStepRelation, "_corrupt", lambda *args: steps.append(args) or corrupt(*args)
        )
        corpus = [(cycle_beta.plant, cycle_beta.spec, _fresh_policy(cycle_beta.policy))]
        corpus.append((cycle_beta.plant, cycle_beta.spec, _fresh_strategy(cycle_strategy)))
        corpus += [(g, h, _fresh_policy(policy)) for _, g, h, policy in self.models(2503, 40)]
        stepped = 0
        for g, h, attack in corpus:
            steps.clear()
            expected = [check_ca_observability_bounded(g, h, _fresh_attack(attack), depth=d) for d in (4, 3)]
            steps.clear()
            assert check_ca_observability_bounded(g, h, attack, depth=4) == expected[0]
            stepped += bool(steps)
            steps.clear()
            assert [check_ca_observability_bounded(g, h, attack, depth=d) for d in (4, 3)] == expected
            assert steps == []
        assert stepped >= 20, stepped


class TestTracesOnDemand:
    """A campaign builds trace objects only for the trials it keeps, from the records the run already has."""

    @pytest.fixture
    def built(self, monkeypatch):
        """How many ``TraceStep`` and ``Trace`` objects the simulation module has constructed."""
        import descat.simulation

        counts = {"TraceStep": 0, "Trace": 0}
        for name in counts:
            original = getattr(descat.simulation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(descat.simulation, name, counted)
        return counts

    def test_a_verified_supervisor_builds_no_trace_step(self, built, cycle_beta):
        sup = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, cycle_beta.policy)
        report = run_campaign(cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy, trials=20, max_steps=20)
        assert report.violation_count == 0 and report.observer_states_visited > 1
        assert built == {"TraceStep": 0, "Trace": 0}

    def test_one_trace_per_distinct_violating_string(self, built, cycle):
        sup = synthesize_ca_supervisor(cycle.plant, cycle.spec, cycle.policy)
        report = run_campaign(cycle.plant, cycle.spec, sup, cycle.policy, trials=20, max_steps=20)
        assert report.violation_count > len(report.violating) > 0
        assert built["Trace"] == len(report.violating) == len(report.distinct_violations)
        assert built["TraceStep"] == sum(len(trace.steps) for trace in report.violating)

    def test_an_unseeded_campaign_keeps_distinct_violations(self, cycle):
        sup = synthesize_ca_supervisor(cycle.plant, cycle.spec, cycle.policy)
        report = run_campaign(cycle.plant, cycle.spec, sup, cycle.policy, trials=50, max_steps=20, base_seed=None)
        strings = [trace.plant_string for trace in report.violating]
        assert strings and len(set(strings)) == len(strings)
        for trace in report.violating:
            assert trace.seed is None and not trace.safe
            assert not trace.steps[-1].safe and all(step.safe for step in trace.steps[:-1])


class TestMoveTable:
    """A plant's moves are listed once per (plant, policy), in a table the closed-loop searches share.

    The table is memoised on the policy as ``(edges, sources, kinds, specs)`` under ``("moves", plant)``.
    """

    @pytest.fixture
    def listed(self, monkeypatch):
        """The (table, plant state) pairs whose moves the step relations have listed."""
        calls = []
        moves = descat.verification._ObserverStepRelation.moves

        def counted(self, q):
            if q not in self.edges:
                calls.append((id(self.edges), q))
            return moves(self, q)

        monkeypatch.setattr(descat.verification._ObserverStepRelation, "moves", counted)
        return calls

    def test_a_warm_table_answers_as_a_cold_one(self):
        rng = random.Random(1207)
        seen = {"policy": 0, "strategy": 0, "cyclic": 0, "holds": 0, "fails": 0}
        for i in range(150):
            cyclic = i % 2 == 1
            g, policy = random_model(rng, acyclic_attacks=not cyclic)
            h = random_spec(rng, g)
            attacks = [(policy, _fresh_policy, "policy")]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append((strategy, _fresh_strategy, "strategy"))
            for attack, fresh, kind in attacks:
                supervisor = random_supervisor(rng, g, h, attack)
                check_ca_observability_bounded(g, h, attack)
                lla = [large_language_automaton(g, supervisor, attack) for _ in range(2)]
                warm = [verify_large_language_equals(g, h, supervisor, attack) for _ in range(2)]
                cold = verify_large_language_equals(g, h, supervisor, fresh(attack))
                assert warm == [cold] * 2
                cold_lla = large_language_automaton(g, supervisor, fresh(attack))
                for product in lla:
                    assert product.automaton == cold_lla.automaton
                    assert list(product.components.items()) == list(cold_lla.components.items())
                seen[kind] += 1
                seen["cyclic"] += cyclic
                seen["holds" if cold.holds else "fails"] += 1
        assert seen["policy"] + seen["strategy"] >= 200, seen
        assert min(seen.values()) >= 40, seen

    def test_one_policy_keeps_a_table_per_plant(self):
        rng = random.Random(1208)
        checked = 0
        while checked < 30:
            g, policy = random_model(rng)
            free = sorted(tr for tr in g.transitions if tr not in policy.entries and tr[0] != g.initial)
            if not free:
                continue
            # Dropping an unattacked move leaves the policy valid for the smaller plant too.
            other = Automaton(
                states=g.states, alphabet=g.alphabet, transitions=g.transitions - {rng.choice(free)}, initial=g.initial
            )
            for plant in (g, other, g, other):
                h = random_spec(rng, plant)
                supervisor = random_supervisor(rng, plant, h, policy)
                assert verify_large_language_equals(plant, h, supervisor, policy) == verify_large_language_equals(
                    plant, h, supervisor, _fresh_policy(policy)
                )
                edges = policy._memo["moves", plant][0]
                assert all([event for event, _, _ in edges[q]] == [e for e, _ in plant.outgoing(q)] for q in edges)
            assert policy._memo["moves", g][0] is not policy._memo["moves", other][0]
            checked += 1

    def test_check_then_two_verifies_list_each_state_once(self, listed, cycle_beta, cycle_strategy):
        for attack in (_fresh_policy(cycle_beta.policy), _fresh_strategy(cycle_strategy)):
            supervisor = synthesize_ca_supervisor(cycle_beta.plant, cycle_beta.spec, attack)
            listed.clear()
            check_ca_observability_bounded(cycle_beta.plant, cycle_beta.spec, attack)
            after_check = len(listed)
            first = verify_large_language_equals(cycle_beta.plant, cycle_beta.spec, supervisor, attack)
            # The closed loop of a verified supervisor stays in the spec, whose states the check has listed.
            assert first.holds and len(listed) == after_check > 0
            assert verify_large_language_equals(cycle_beta.plant, cycle_beta.spec, supervisor, attack) == first
            large_language_automaton(cycle_beta.plant, supervisor, attack)
            assert len(set(listed)) == len(listed) and len({table for table, _ in listed}) == 1

    def test_a_verify_failing_at_the_initial_node_lists_only_the_initial_state(self, listed):
        rng = random.Random(1209)
        found = 0
        while found < 10:
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            supervisor = random_supervisor(rng, g, h, policy)
            policy = _fresh_policy(policy)
            listed.clear()
            verdict = verify_large_language_equals(g, h, supervisor, policy)
            if verdict.holds or verdict.counterexample.string:
                continue
            edges, _, _, specs = policy._memo["moves", g]
            assert [q for _, q in listed] == list(edges) == list(specs[h]) == [g.initial]
            found += 1

    def test_a_spec_off_the_plant_raises_on_every_call(self, cycle_beta):
        g, spec, policy = cycle_beta.plant, cycle_beta.spec, _fresh_policy(cycle_beta.policy)
        supervisor = synthesize_ca_supervisor(g, spec, policy)
        src, event, dst = next(tr for tr in sorted(spec.transitions) if tr[0] == spec.initial)
        target = next(q for q in sorted(spec.states) if q != dst)
        redirected = Automaton(
            states=spec.states,
            alphabet=spec.alphabet,
            transitions=spec.transitions - {(src, event, dst)} | {(src, event, target)},
            initial=spec.initial,
        )
        for _ in range(3):
            with pytest.raises(InputError, match="must be a sub-automaton of the plant"):
                verify_large_language_equals(g, redirected, supervisor, policy)
            assert verify_large_language_equals(g, spec, supervisor, policy).holds
        specs = policy._memo["moves", g][3]
        assert redirected not in specs and specs[spec]


class TestRunTables:
    """A set-up's run tables are listed once and kept on the attack across simulations and campaigns.

    They are memoised on the (converted) policy under ``("runs", plant, spec,
    passive, fragment_cap, actuator set)``, with plant and spec compared by value.
    """

    ATTACKERS = (
        AttackerStrategy.random_choices(),
        AttackerStrategy.exhaustive(),
        AttackerStrategy.none(),
        AttackerStrategy(kind="exhaustive", fragment_cap=2),
    )

    @staticmethod
    def runs(plant, h, supervisor, attack, attacker, actuator_attackable=None):
        """A simulation's and a campaign's answers, as text."""
        trace = simulate(plant, h, supervisor, attack, actuator_attackable, attacker=attacker, max_steps=7, seed=3)
        report = run_campaign(plant, h, supervisor, attack, actuator_attackable, trials=6, max_steps=7, attacker=attacker)
        return trace.to_text(), trace.as_dict(), report.as_dict(), [t.to_text() for t in report.violating]

    @staticmethod
    def tables(attack, g) -> dict:
        """The run tables on ``attack``'s transition-based policy for ``g``, by key."""
        policy = transition_based_setup(g, None, attack)[2]
        return {key: value for key, value in policy._memo.items() if key[0] == "runs"}

    def test_warm_tables_answer_as_cold_ones(self):
        rng = random.Random(2401)
        seen = {"policy": 0, "strategy": 0, "cyclic": 0, "safe": 0, "unsafe": 0}
        for i in range(60):
            cyclic = i % 3 == 2
            g, policy = random_model(rng, acyclic_attacks=not cyclic)
            h = random_spec(rng, g)
            attacks = [(policy, _fresh_policy, "policy")]
            strategy = random_strategy(rng, g)
            if strategy is not None:
                attacks.append((strategy, _fresh_strategy, "strategy"))
            for attack, fresh, kind in attacks:
                supervisor = random_supervisor(rng, g, h, attack)
                for attacker in self.ATTACKERS:
                    answer = _same_on_repeat_twin_and_fresh(
                        lambda plant, a: self.runs(plant, h, supervisor, a, attacker), attack, fresh, g
                    )
                    if answer[0] == "ok":
                        seen["safe" if answer[1][2]["violations"] == 0 else "unsafe"] += 1
                seen[kind] += 1
                seen["cyclic"] += cyclic
        assert min(seen.values()) >= 20, seen

    def test_each_set_up_keeps_its_own_tables(self):
        rng = random.Random(2402)
        checked = 0
        while checked < 30:
            g, policy = random_model(rng)
            att = g.alphabet.actuator_attackable
            h, other_h = random_spec(rng, g), random_spec(rng, g)
            if not att or not policy.entries or h == other_h:
                continue
            supervisor = random_supervisor(rng, g, h, policy)
            random_attacker = AttackerStrategy.random_choices()
            variants = [
                (h, random_attacker, None),
                (other_h, random_attacker, None),
                (h, AttackerStrategy(kind="random", fragment_cap=4), None),
                (h, AttackerStrategy.none(), None),
                (h, random_attacker, sorted(att)[:-1]),
            ]
            for spec, attacker, actuator_attackable in variants * 2:
                warm = self.runs(g, spec, supervisor, policy, attacker, actuator_attackable)
                cold = self.runs(g, spec, supervisor, _fresh_policy(policy), attacker, actuator_attackable)
                assert warm == cold
            tables = self.tables(policy, g)
            assert len(tables) == len(variants)
            assert len({id(value) for value in tables.values()}) == len(variants)
            # The exhaustive attacker reads the random attacker's tables.
            simulate(g, h, supervisor, policy, attacker=AttackerStrategy.exhaustive(), max_steps=5)
            assert self.tables(policy, g) == tables
            checked += 1
