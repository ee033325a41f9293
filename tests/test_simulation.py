"""Closed-loop simulation: trace soundness, reproducibility and campaigns."""

import dataclasses
import math
import random

import pytest

from descat import (
    AttackerStrategy,
    CAObserver,
    InputError,
    SensorAttackPolicy,
    SubsetTable,
    UnsupportedSupervisorError,
    delta_control,
    enumerate_language,
    natural_projection,
    run_campaign,
    simulate,
    synthesize_ca_supervisor,
    synthesize_obs_based,
    verify_large_language_equals,
)
from oracles import brute_force_large_language, campaign_by_rewalk, heights_by_ranking, simulate_by_rewalk
from conftest import random_model, random_spec, random_strategy, random_supervisor

W = lambda text: tuple(text.split())


def corpus_supervisor(model):
    return synthesize_ca_supervisor(model.plant, model.spec, model.policy)


class TestTraceSoundness:
    def test_plant_string_stays_in_plant_language(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        for seed in range(20):
            trace = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                max_steps=15, seed=seed,
            )
            assert trace.plant_string in enumerate_language(cycle_beta.plant, 15)

    def test_received_control_is_attacked_issue(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        attackable = cycle_beta.alphabet.actuator_attackable
        for seed in range(20):
            trace = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                max_steps=10, seed=seed,
            )
            for step in trace.steps:
                deliveries = delta_control(frozenset(step.issued), attackable)
                assert frozenset(step.received) in deliveries

    def test_observation_is_concatenation_of_fragments(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        trace = simulate(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy, max_steps=8, seed=5
        )
        assert trace.observation == sum((s.fragment for s in trace.steps), ())

    def test_strings_lie_in_brute_force_large_language(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        bf = brute_force_large_language(cycle_beta.plant, sup, cycle_beta.policy, depth=8)
        for seed in range(30):
            trace = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                max_steps=8, seed=seed,
            )
            assert trace.plant_string in bf

    def test_random_models_strings_lie_in_large_language(self):
        rng = random.Random(51)
        import warnings

        for _ in range(10):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sup = synthesize_ca_supervisor(g, h, policy)
            bf = brute_force_large_language(g, sup, policy, depth=6)
            trace = simulate(g, h, sup, policy, max_steps=6, seed=rng.randrange(1000))
            assert trace.plant_string in bf


class TestReproducibility:
    def test_identical_seeds_identical_bytes(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        for seed in (0, 7, 123):
            a = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                max_steps=25, seed=seed,
            )
            b = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                max_steps=25, seed=seed,
            )
            assert a.to_text() == b.to_text()
            assert a == b

    def test_the_run_is_the_only_source_of_its_seed(self, cycle):
        """An attacker carries no seed, so a campaign's trials run on seeds ``base_seed + i``."""
        with pytest.raises(TypeError):
            AttackerStrategy(kind="random", seed=7)
        sup = corpus_supervisor(cycle)
        report = run_campaign(
            cycle.plant, cycle.spec, sup, cycle.policy,
            trials=50, max_steps=6, base_seed=0, attacker=AttackerStrategy.random_choices(),
        )
        assert report.violation_count > 0
        for trace in report.violating:
            assert trace == simulate(cycle.plant, cycle.spec, sup, cycle.policy, max_steps=6, seed=trace.seed)

    def test_record_format(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        trace = simulate(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy, max_steps=3, seed=0
        )
        lines = trace.to_lines()
        assert lines[0].startswith("# step, plant_event")
        for line in lines[1:]:
            fields = line.split(", ")
            assert len(fields) == 6
            assert fields[5] in ("true", "false")


class TestAttackers:
    def test_none_attacker_is_classical_supervision(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        for seed in range(10):
            trace = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                attacker=AttackerStrategy.none(), max_steps=12, seed=seed,
            )
            assert trace.safe
            assert trace.plant_string in enumerate_language(cycle_beta.spec, 12)
            assert trace.observation == trace.plant_string

    def test_exhaustive_attacker_finds_forced_escape(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        trace = simulate(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            actuator_attackable={"alpha", "beta"},
            attacker=AttackerStrategy.exhaustive(), max_steps=4,
        )
        assert not trace.safe
        assert trace.plant_string == W("alpha alpha")

    def test_exhaustive_attacker_reports_safety_when_verified(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        assert verify_large_language_equals(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy
        ).holds
        trace = simulate(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            attacker=AttackerStrategy.exhaustive(), max_steps=4,
        )
        assert trace.safe


class TestCampaign:
    def test_safe_setup_has_no_violations(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            trials=300, max_steps=20, base_seed=0,
        )
        assert report.violation_count == 0
        assert report.observer_states_visited == len(sup.observer.observer.states)

    def test_unsafe_setup_found_by_exhaustive_attacker(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            actuator_attackable={"alpha", "beta"},
            trials=5, max_steps=4, base_seed=0,
            attacker=AttackerStrategy.exhaustive(),
        )
        assert report.trials == 1
        assert report.violation_count >= 1
        assert W("alpha alpha") in report.distinct_violations

    def test_campaign_with_passive_attacker(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            trials=20, max_steps=10, base_seed=0,
            attacker=AttackerStrategy.none(),
        )
        assert report.violation_count == 0
        assert report.attacker == "none"

    def test_single_trial_reproduces_simulate(self, cycle_beta):
        sup = corpus_supervisor(cycle_beta)
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            actuator_attackable={"alpha", "beta"},
            trials=1, max_steps=10, base_seed=77,
        )
        direct = simulate(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            actuator_attackable={"alpha", "beta"},
            max_steps=10, seed=77,
        )
        if report.violating:
            assert report.violating[0] == direct
        else:
            assert direct.safe

    def test_trials_reproduce_simulate_per_seed(self, cycle_beta, cycle_strategy):
        sup = synthesize_obs_based(cycle_beta.plant, cycle_beta.spec, cycle_strategy)
        attackable = {"alpha", "beta"}
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_strategy,
            actuator_attackable=attackable, trials=30, max_steps=8, base_seed=5,
        )
        traces = [
            simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_strategy,
                actuator_attackable=attackable, max_steps=8, seed=5 + i,
            )
            for i in range(30)
        ]
        first: dict = {}
        for trace in traces:
            if not trace.safe:
                first.setdefault(trace.plant_string, trace)
        assert report.violation_count == sum(not t.safe for t in traces) > 0
        assert report.violating == tuple(first.values())

    def test_invalid_input_raises_before_any_trial(self, cycle_beta):
        class NeverAsked:
            def control_for(self, observation):
                raise AssertionError("a trial ran")

        for policy, max_steps in ((SensorAttackPolicy.empty(), 5), (cycle_beta.policy, -1)):
            with pytest.raises(InputError):
                run_campaign(
                    cycle_beta.plant, cycle_beta.spec, NeverAsked(), policy,
                    trials=3, max_steps=max_steps,
                )


class TestObservationBasedSimulation:
    def test_strategy_input_converts_and_runs_safely(self, cycle_beta, cycle_strategy):
        sup = synthesize_obs_based(cycle_beta.plant, cycle_beta.spec, cycle_strategy)
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_strategy,
            trials=100, max_steps=15, base_seed=0,
        )
        assert report.violation_count == 0


def outcome(run, *args, **kwargs):
    """The result of ``run``, or the exception it raised."""
    try:
        return run(*args, **kwargs)
    except Exception as exc:  # compared as a value: both sides must fail alike
        return exc


class TestIncrementalObserver:
    """The observer state carried through a run against re-walking the observation."""

    ATTACKERS = (
        AttackerStrategy.none(),
        AttackerStrategy.random_choices(),
        AttackerStrategy(kind="random", fragment_cap=1),
        AttackerStrategy.exhaustive(),
        AttackerStrategy(kind="exhaustive", fragment_cap=1),
    )

    @staticmethod
    def cases(cycle_beta):
        """(kind, plant, spec, supervisor, attack) on random models and on the cycle.

        The cycle's lambda is corrupted only to ``lambda mu``, so every
        run carries two-event fragments into the following controls.
        """
        two_events = dataclasses.replace(cycle_beta.f1, marked=frozenset({"B"}))
        policy = SensorAttackPolicy.from_transitions(
            {("2", "lambda", "3"): two_events, ("3", "mu", "1"): cycle_beta.f2}
        )
        g, h = cycle_beta.plant, cycle_beta.spec
        yield "transition", g, h, synthesize_ca_supervisor(g, h, policy), policy
        rng = random.Random(808)
        for _ in range(30):
            g, policy = random_model(rng, acyclic_attacks=rng.random() < 0.5)
            h = random_spec(rng, g)
            yield "transition", g, h, random_supervisor(rng, g, h, policy), policy
            strategy = random_strategy(rng, g)
            if strategy is not None:
                yield "observation", g, h, synthesize_obs_based(g, h, strategy), strategy

    def test_matches_rewalk_on_random_models(self, cycle_beta):
        rng = random.Random(809)
        compared = {"transition": 0, "observation": 0, "unsafe": 0}
        for kind, g, h, sup, attack in self.cases(cycle_beta):
            for attacker in self.ATTACKERS:
                steps = 5 if attacker.kind == "exhaustive" else 25
                seed = rng.randrange(1000)
                trace = outcome(simulate, g, h, sup, attack, attacker=attacker, max_steps=steps, seed=seed)
                ref = outcome(simulate_by_rewalk, g, h, sup, attack, attacker=attacker, max_steps=steps, seed=seed)
                report = outcome(
                    run_campaign, g, h, sup, attack, trials=4, max_steps=steps, base_seed=seed, attacker=attacker
                )
                expected = outcome(
                    campaign_by_rewalk, g, h, sup, attack, trials=4, max_steps=steps, base_seed=seed, attacker=attacker
                )
                assert type(trace) is type(ref) and type(report) is type(expected)
                if isinstance(ref, Exception):
                    assert (repr(trace), repr(report)) == (repr(ref), repr(expected))
                    continue
                assert trace.to_text() == ref.to_text()
                assert trace.as_dict() == ref.as_dict()
                assert report.as_dict() == expected.as_dict()
                assert [t.as_dict() for t in report.violating] == [t.as_dict() for t in expected.violating]
                compared[kind] += 1
                compared["unsafe"] += not trace.safe
        assert min(compared.values()) >= 10, compared

    def test_runs_never_rewalk_the_observation(self, cycle_beta, monkeypatch):
        sup = corpus_supervisor(cycle_beta)
        state_for = CAObserver.state_for
        calls = []
        monkeypatch.setattr(CAObserver, "state_for", lambda self, obs: calls.append(1) or state_for(self, obs))
        report = run_campaign(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            trials=3, max_steps=400, base_seed=0,
        )
        assert report.observer_states_visited == len(sup.observer.observer.states)
        trace = simulate(
            cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
            attacker=AttackerStrategy.exhaustive(), max_steps=8,
        )
        assert len(trace.steps) == 8
        assert calls == []

    def test_supervisor_without_observer_is_rejected(self, cycle_beta, cycle_strategy):
        class ControlOnly:
            def control_for(self, observation):
                return cycle_beta.alphabet.events

        for attack in (cycle_beta.policy, cycle_strategy):
            with pytest.raises(UnsupportedSupervisorError):
                simulate(cycle_beta.plant, cycle_beta.spec, ControlOnly(), attack, max_steps=5)
            with pytest.raises(UnsupportedSupervisorError):
                run_campaign(cycle_beta.plant, cycle_beta.spec, ControlOnly(), attack, trials=2, max_steps=5)


class TestCampaignEdges:
    """Campaigns at the ends of a run against the re-walking oracle, with a policy and with a strategy."""

    ATTACKERS = (AttackerStrategy.none(), AttackerStrategy.random_choices())

    @staticmethod
    def setups(cycle, cycle_beta, cycle_strategy):
        """(kind, plant, spec, supervisor, attack): the cycles, then random models that may dead-end."""
        g, h = cycle_beta.plant, cycle_beta.spec
        yield "policy", g, h, corpus_supervisor(cycle_beta), cycle_beta.policy
        yield "strategy", g, h, synthesize_obs_based(g, h, cycle_strategy), cycle_strategy
        yield "policy", cycle.plant, cycle.spec, corpus_supervisor(cycle), cycle.policy
        rng = random.Random(811)
        for _ in range(25):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            yield "policy", g, h, random_supervisor(rng, g, h, policy), policy
            strategy = random_strategy(rng, g)
            if strategy is not None:
                sup = outcome(synthesize_obs_based, g, h, strategy)
                if not isinstance(sup, Exception):
                    yield "strategy", g, h, sup, strategy

    def test_short_and_dead_ended_runs_match_rewalk(self, cycle, cycle_beta, cycle_strategy):
        rng = random.Random(812)
        ends = {(kind, end): 0 for kind in ("policy", "strategy") for end in ("empty", "one", "dead end", "passive")}
        for kind, g, h, sup, attack in self.setups(cycle, cycle_beta, cycle_strategy):
            for attacker in self.ATTACKERS:
                for steps in (0, 1, 12):
                    seed = rng.randrange(1000)
                    kwargs = dict(trials=5, max_steps=steps, base_seed=seed, attacker=attacker)
                    report = outcome(run_campaign, g, h, sup, attack, **kwargs)
                    expected = outcome(campaign_by_rewalk, g, h, sup, attack, **kwargs)
                    assert type(report) is type(expected)
                    if isinstance(expected, Exception):
                        assert repr(report) == repr(expected)
                        continue
                    assert report.as_dict() == expected.as_dict()
                    assert [t.as_dict() for t in report.violating] == [t.as_dict() for t in expected.violating]
                    runs = [
                        simulate_by_rewalk(g, h, sup, attack, attacker=attacker, max_steps=steps, seed=seed + i)
                        for i in range(5)
                    ]
                    ends[kind, "empty"] += steps == 0
                    ends[kind, "one"] += steps == 1 and any(run.steps for run in runs)
                    ends[kind, "dead end"] += steps > 1 and any(len(run.steps) < steps for run in runs)
                    ends[kind, "passive"] += attacker.kind == "none" and steps > 1
        assert min(ends.values()) >= 3, ends

    def test_coverage_counts_the_state_after_the_last_fragment(self, cycle_beta, cycle_strategy):
        g, h = cycle_beta.plant, cycle_beta.spec
        for sup, attack in (
            (corpus_supervisor(cycle_beta), cycle_beta.policy),
            (synthesize_obs_based(g, h, cycle_strategy), cycle_strategy),
        ):
            for attacker in self.ATTACKERS:
                trace = simulate(g, h, sup, attack, attacker=attacker, max_steps=1, seed=3)
                report = run_campaign(g, h, sup, attack, trials=1, max_steps=1, base_seed=3, attacker=attacker)
                after = sup.observer_state_for(trace.observation)
                assert trace.steps and after != sup.observer_state_for(())
                assert report.observer_states_visited == 2


class TestDeepExhaustive:
    """The exhaustive attacker against the re-walking oracle beyond depth 5."""

    def test_deep_runs_on_the_cycle(self, cycle_beta, cycle_strategy):
        g, h = cycle_beta.plant, cycle_beta.spec
        setups = (
            (corpus_supervisor(cycle_beta), cycle_beta.policy, 14),
            (synthesize_obs_based(g, h, cycle_strategy), cycle_strategy, 12),
        )
        for sup, attack, depth in setups:
            args = (g, h, sup, attack)
            kwargs = dict(attacker=AttackerStrategy.exhaustive(), max_steps=depth)
            trace = simulate(*args, **kwargs)
            ref = simulate_by_rewalk(*args, **kwargs)
            assert trace.safe and len(trace.steps) == depth
            assert (trace.to_text(), trace.as_dict()) == (ref.to_text(), ref.as_dict())

    def test_searches_that_empty_before_the_bound(self):
        rng = random.Random(5)
        emptied = 0
        for _ in range(100):
            g, policy = random_model(rng)
            h = random_spec(rng, g)
            args = (g, h, random_supervisor(rng, g, h, policy), policy)
            kwargs = dict(attacker=AttackerStrategy.exhaustive(), max_steps=12)
            trace = simulate(*args, **kwargs)
            ref = simulate_by_rewalk(*args, **kwargs)
            assert (trace.to_text(), trace.as_dict()) == (ref.to_text(), ref.as_dict())
            emptied += trace.safe and len(trace.steps) < 12
        assert emptied >= 10

    def test_cyclic_corruption_languages(self):
        """Seed 2 keeps the oracle quick: about one random model in 40 takes it minutes at depth 6."""
        rng = random.Random(2)
        ends = {"unsafe": 0, "emptied": 0, "full": 0}
        for _ in range(40):
            g, policy = random_model(rng, acyclic_attacks=False)
            h = random_spec(rng, g)
            args = (g, h, random_supervisor(rng, g, h, policy), policy)
            for cap in (None, 2):
                for depth in (3, 6):
                    kwargs = dict(attacker=AttackerStrategy(kind="exhaustive", fragment_cap=cap), max_steps=depth)
                    trace = outcome(simulate, *args, **kwargs)
                    ref = outcome(simulate_by_rewalk, *args, **kwargs)
                    assert type(trace) is type(ref)
                    if isinstance(ref, Exception):
                        assert repr(trace) == repr(ref)
                        continue
                    assert (trace.to_text(), trace.as_dict()) == (ref.to_text(), ref.as_dict())
                    ends["unsafe" if not trace.safe else "emptied" if len(trace.steps) < depth else "full"] += 1
        assert min(ends.values()) >= 20, ends

    def test_depth_sixteen_on_the_cycle(self, cycle_beta):
        args = (cycle_beta.plant, cycle_beta.spec, corpus_supervisor(cycle_beta), cycle_beta.policy)
        kwargs = dict(attacker=AttackerStrategy.exhaustive(), max_steps=16)
        trace = simulate(*args, **kwargs)
        ref = simulate_by_rewalk(*args, **kwargs)
        assert trace.safe and len(trace.steps) == 16
        assert (trace.to_text(), trace.as_dict()) == (ref.to_text(), ref.as_dict())

    def test_cost_is_flat_once_the_arena_saturates(self, cycle_beta, monkeypatch):
        sup = corpus_supervisor(cycle_beta)
        # Each arena node expanded steps the observer table once, by its last fragment.
        step = SubsetTable.step
        calls = []
        monkeypatch.setattr(SubsetTable, "step", lambda self, x, events: calls.append(x) or step(self, x, events))
        counts = {}
        for depth in (50, 400):
            calls.clear()
            trace = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                attacker=AttackerStrategy.exhaustive(), max_steps=depth,
            )
            counts[depth] = len(calls)
        assert counts[50] == counts[400] > 0
        assert trace.safe and len(trace.steps) == 400

    def test_safe_fallback_is_linear_in_max_steps(self, cycle_beta, monkeypatch):
        """Arena-node expansions while the safe fallback picks its walk, counted as edge-list reads."""
        from descat import simulation

        class CountingEdges(dict):
            reads = 0

            def get(self, *args):
                CountingEdges.reads += 1
                return super().get(*args)

        tight_walk = simulation._tight_walk
        monkeypatch.setattr(
            simulation, "_tight_walk",
            lambda start, edges, *args, **kwargs: tight_walk(start, CountingEdges(edges), *args, **kwargs),
        )
        sup = corpus_supervisor(cycle_beta)
        reads = {}
        for depth in (400, 800):
            CountingEdges.reads = 0
            trace = simulate(
                cycle_beta.plant, cycle_beta.spec, sup, cycle_beta.policy,
                attacker=AttackerStrategy.exhaustive(), max_steps=depth,
            )
            assert trace.safe and len(trace.steps) == depth
            reads[depth] = CountingEdges.reads
        assert 0 < reads[800] <= 2 * reads[400], reads


    def test_past_the_recursion_limit(self, cycle_beta):
        """A safe 2000-step run: deeper than Python's default recursion limit, so no search may recurse per step."""
        g, h, policy = cycle_beta.plant, cycle_beta.spec, cycle_beta.policy
        sup = corpus_supervisor(cycle_beta)
        trace = simulate(g, h, sup, policy, attacker=AttackerStrategy.exhaustive(), max_steps=2000)
        assert trace.safe and len(trace.steps) == 2000
        assert_replays(trace, g, h, sup, policy)


def assert_replays(trace, g, h, sup, policy):
    """Each step of ``trace`` is a legal closed-loop step of ``sup`` under ``policy``.

    The supervisor's observer is stepped one fragment at a time, where
    ``control_for`` would re-read the whole observation at every step.
    """
    from descat.automata import run

    table, att = sup.observer.table, g.alphabet.actuator_attackable
    x, q, safe = table.initial, g.initial, g.initial in h.states
    for i, step in enumerate(trace.steps, 1):
        issued = sup.default_control if x is None else sup.control_table[x]
        assert step.index == i and step.issued == tuple(sorted(issued))
        assert frozenset(step.received) in delta_control(issued, att)
        assert step.event in step.received or step.event in g.alphabet.uncontrollable
        dst = g.delta(q, step.event)
        assert dst is not None
        f = policy.language_automaton((q, step.event, dst))
        if f is None:
            assert step.fragment == natural_projection((step.event,), g.alphabet)
        else:
            assert run(f, step.fragment) & f.marked
        q, safe = dst, safe and dst in h.states
        assert step.safe == safe
        x = table.step(x, step.fragment)
    assert trace.safe == safe


class TestWalkLengths:
    """The exhaustive attacker's on-demand walk lengths against a ranking of the whole arena."""

    @staticmethod
    def random_edges(rng):
        """An edge map with cycles, self-loops, dead ends, childless nodes and nodes no edge enters."""
        nodes = list(range(rng.randint(1, 14)))
        edges = {}
        for node in nodes:
            if rng.random() < 0.15:
                continue  # never expanded: no entry at all
            out = [(("e", k), rng.choice(nodes)) for k in range(rng.choice((0, 0, 1, 1, 2, 3)))]
            if rng.random() < 0.6:  # most edges go forward, so long acyclic walks are common
                out = [(label, node + rng.randint(1, 2)) for label, _ in out]
            edges[node] = out
        return edges

    def test_matches_the_ranking_oracle(self):
        from descat.simulation import _walk_lengths

        rng = random.Random(2424)
        seen = {"cyclic": 0, "deep": 0, "self-loop": 0, "unexpanded": 0}
        for _ in range(400):
            edges = self.random_edges(rng)
            oracle = heights_by_ranking(edges)
            nodes = sorted(edges.keys() | {child for out in edges.values() for _, child in out})
            queries = [(node, cap) for node in nodes for cap in range(13)]
            rng.shuffle(queries)
            longest = _walk_lengths(edges)
            for node, cap in queries:
                assert longest(node, cap) == min(cap, oracle.get(node, math.inf)), (edges, node, cap)
            seen["cyclic"] += any(node not in oracle for node in nodes)
            seen["deep"] += max(oracle.values(), default=0) >= 4
            seen["self-loop"] += any(node == child for node, out in edges.items() for _, child in out)
            seen["unexpanded"] += any(node not in edges for node in nodes)
        assert min(seen.values()) >= 40, seen

    def test_a_long_chain_without_recursion(self):
        from descat.simulation import _walk_lengths

        edges = {i: [("e", i + 1)] for i in range(5000)}
        longest = _walk_lengths(edges)
        assert longest(0, 10**6) == 5000 and longest(4990, 20) == 10 and longest(0, 7) == 7
        edges[5000] = [("e", 0)]
        assert _walk_lengths(edges)(2500, 10**6) == 10**6


class TestFragmentCap:
    """A cap below the shortest word of an attack language is rejected before any trial."""

    @staticmethod
    def two_event_lambda(cycle_beta):
        """The cycle with lambda corrupted only to ``lambda mu``."""
        two_events = dataclasses.replace(cycle_beta.f1, marked=frozenset({"B"}))
        return SensorAttackPolicy.from_transitions(
            {("2", "lambda", "3"): two_events, ("3", "mu", "1"): cycle_beta.f2}
        )

    @pytest.mark.parametrize("kind", ["random", "exhaustive"])
    def test_cap_one_raises_and_cap_two_runs(self, cycle_beta, kind):
        policy = self.two_event_lambda(cycle_beta)
        g, h = cycle_beta.plant, cycle_beta.spec
        args = (g, h, synthesize_ca_supervisor(g, h, policy), policy)
        message = r"fragment_cap 1 admits no corruption word for transition \('2', 'lambda', '3'\)"
        with pytest.raises(InputError, match=message):
            simulate(*args, attacker=AttackerStrategy(kind=kind, fragment_cap=1), max_steps=10)
        with pytest.raises(InputError, match=message):
            run_campaign(*args, attacker=AttackerStrategy(kind=kind, fragment_cap=1), trials=3, max_steps=10)
        attacker = AttackerStrategy(kind=kind, fragment_cap=2)
        trace = simulate(*args, attacker=attacker, max_steps=10, seed=1)
        assert len(trace.steps) == 10 and trace.fragment_cap == 2
        assert all(s.fragment == W("lambda mu") for s in trace.steps if s.event == "lambda")
        report = run_campaign(*args, attacker=attacker, trials=3, max_steps=10)
        assert report.violation_count == 0

    def test_cap_is_ignored_without_corruption(self, cycle_beta):
        policy = self.two_event_lambda(cycle_beta)
        g, h = cycle_beta.plant, cycle_beta.spec
        sup = synthesize_ca_supervisor(g, h, policy)
        trace = simulate(g, h, sup, policy, attacker=AttackerStrategy(kind="none", fragment_cap=1), max_steps=6)
        assert trace.fragment_cap == 1 and trace.plant_string == W("alpha lambda")


class TestPolicyValidatedOnce:
    def test_one_validation_per_call(self, cycle_beta, cycle_strategy, monkeypatch):
        import descat.attacks

        validate = descat.attacks.validate_policy
        calls = []
        monkeypatch.setattr(descat.attacks, "validate_policy", lambda g, p: calls.append(1) or validate(g, p))
        g, h, policy = cycle_beta.plant, cycle_beta.spec, cycle_beta.policy
        sup = synthesize_ca_supervisor(g, h, policy)
        assert len(calls) == 1
        run_campaign(g, h, sup, policy, trials=3, max_steps=5)
        assert len(calls) == 2
        obs_sup = synthesize_obs_based(g, h, cycle_strategy)
        run_campaign(g, h, obs_sup, cycle_strategy, trials=3, max_steps=5)
        simulate(g, h, obs_sup, cycle_strategy, attacker=AttackerStrategy.exhaustive(), max_steps=5)
        # A converted policy is valid by construction and never validated.
        assert len(calls) == 2

    def test_fragments_are_enumerated_once_per_distinct_automaton(self, cycle_beta, monkeypatch):
        """Two transitions attacked by equal automata (one a copy) share one enumeration per set-up.

        The run tables are kept on the attack across calls, and random and
        exhaustive attackers share them, so a campaign and a simulation of
        each kind enumerate the words once between them.
        """
        import descat.simulation
        from descat import Automaton, ObservationAttackStrategy

        f, copy = cycle_beta.f2, dataclasses.replace(cycle_beta.f2)
        policy = SensorAttackPolicy.from_transitions({("2", "lambda", "3"): f, ("3", "mu", "1"): copy})
        loops = {("z", e, "z") for e in ("alpha", "lambda", "mu")}
        sa = Automaton({"z"}, cycle_beta.alphabet.observable_restriction(), loops, "z")
        strategy = ObservationAttackStrategy(sa=sa, omega={("z", "lambda"): f, ("z", "mu"): copy})
        enumerate_words = descat.simulation.bounded_marked_language
        calls = []
        monkeypatch.setattr(
            descat.simulation, "bounded_marked_language", lambda a, bound: calls.append(a) or enumerate_words(a, bound)
        )
        g, h = cycle_beta.plant, cycle_beta.spec
        for attack in (policy, strategy):
            sup = synthesize_ca_supervisor(g, h, attack)
            calls.clear()
            for attacker in (AttackerStrategy.random_choices(), AttackerStrategy.exhaustive()):
                report = run_campaign(g, h, sup, attack, trials=20, max_steps=12, attacker=attacker)
                assert report.observer_states_visited > 2
                trace = simulate(g, h, sup, attack, attacker=attacker, max_steps=12, seed=1)
                assert {"lambda", "mu"} <= set(trace.plant_string)
            assert calls == [f]

    def test_policy_is_reported_before_nondeterminism(self, cycle_beta):
        g = dataclasses.replace(cycle_beta.plant, transitions=cycle_beta.plant.transitions | {("1", "alpha", "4")})
        sup = corpus_supervisor(cycle_beta)
        with pytest.raises(InputError, match="invalid sensor attack policy"):
            simulate(g, cycle_beta.spec, sup, SensorAttackPolicy.empty(), max_steps=5)
