"""Acceptance gate: every shipped guarantee, checked end to end.

Each test exercises one criterion at its stated tolerance and prints one
pass/fail line (visible with ``pytest -s`` or in verbose failure output).
Criteria 4 and 8 carry wall-clock budgets; the corpus criteria pin exact
golden values for the cycle model.
"""

import random
import time

import pytest

from descat import (
    AttackerStrategy,
    check_ca_controllability,
    check_ca_observability_bounded,
    build_ca_observer,
    compare_permissiveness,
    delta_control,
    enumerate_language,
    large_language_automaton,
    phi_enumerate,
    phi_omega,
    run_campaign,
    simulate,
    state_estimate,
    supervisor_union,
    synthesize_ca_supervisor,
    synthesize_obs_based,
    verify_large_language_equals,
)
from conftest import (
    make_cycle,
    make_cycle_strategy,
    random_model,
    random_spec,
    random_supervisor,
)
from oracles import brute_force_large_language, phi_language_oracle

W = lambda text: tuple(text.split())

SIGMA = frozenset({"alpha", "beta", "lambda", "mu"})


def report(number: int, description: str, ok: bool = True) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok


def strip_injected(members) -> frozenset:
    return frozenset(m.split("/")[-1] for m in members)


@pytest.fixture(scope="module")
def case1():
    return make_cycle(("alpha", "beta"))


@pytest.fixture(scope="module")
def case2():
    return make_cycle(("beta",))


def test_criterion_01_observation_semantics(case1):
    started = time.perf_counter()
    phi_al = phi_enumerate(W("alpha lambda"), case1.plant, case1.policy)
    phi_alm = phi_enumerate(W("alpha lambda mu"), case1.plant, case1.policy)
    elapsed = time.perf_counter() - started
    assert phi_al.strings == {W("alpha"), W("alpha lambda"), W("alpha lambda mu")}
    assert phi_alm.strings == {
        W("alpha mu"),
        W("alpha beta"),
        W("alpha lambda mu"),
        W("alpha lambda beta"),
        W("alpha lambda mu mu"),
        W("alpha lambda mu beta"),
    }
    assert elapsed < 1.0
    report(1, f"corrupted-observation images are exact ({elapsed:.3f}s)")


def test_criterion_02_attacked_control_algebra():
    out = delta_control({"alpha", "lambda", "mu"}, {"alpha", "beta"})
    assert len(out) == 4
    assert out == {
        frozenset(base) | extra
        for base in ({"lambda", "mu"},)
        for extra in (
            frozenset(),
            frozenset({"alpha"}),
            frozenset({"beta"}),
            frozenset({"alpha", "beta"}),
        )
    }
    rng = random.Random(2024)
    pool = "abcdefgh"
    for _ in range(200):
        control = frozenset(rng.sample(pool, rng.randint(0, 6)))
        attackable = frozenset(rng.sample(pool, rng.randint(0, 5)))
        expanded = delta_control(control, attackable)
        assert len(expanded) == 2 ** len(attackable)
        assert control in expanded
        assert all(control - attackable <= c <= control | attackable for c in expanded)
    report(2, "attacked-control expansion has exactly 2^|attackable| members (200 random pairs)")


def test_criterion_03_state_estimation_golden(case1):
    observer = build_ca_observer(case1.plant, case1.policy)
    estimate = state_estimate(observer, W("alpha lambda mu"))
    assert estimate == {"1", "3"}
    reached = observer.state_for(W("alpha lambda mu"))
    assert strip_injected(observer.members[reached]) == {"1", "3", "B", "D", "E"}
    report(3, "estimate for 'alpha lambda mu' is {1,3} at observer state {1,3,B,D,E}")


def test_criterion_04_observation_language_equality(case1):
    started = time.perf_counter()
    observer = build_ca_observer(case1.plant, case1.policy)
    for depth in range(7):
        assert enumerate_language(observer.observer, depth, marked_only=True) == (
            phi_language_oracle(case1.plant, case1.policy, depth)
        )
    rng = random.Random(4242)
    for _ in range(50):
        g, policy = random_model(rng, acyclic_attacks=False)
        obs = build_ca_observer(g, policy)
        assert enumerate_language(obs.observer, 6, marked_only=True) == phi_language_oracle(
            g, policy, 6
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"observer marked language equals the observation image on 50 random models ({elapsed:.1f}s)")


def test_criterion_05_controllability_and_observability_verdicts(case1, case2):
    v1 = check_ca_controllability(case1.plant, case1.spec)
    assert v1.status == "fails"
    assert v1.counterexample.event == "alpha"
    v2 = check_ca_controllability(case2.plant, case2.spec)
    assert v2.status == "holds"
    v3 = check_ca_observability_bounded(case2.plant, case2.spec, case2.policy, depth=9)
    assert v3.status == "holds-to-depth" and v3.depth == 9
    report(5, "controllability fails with event alpha under full actuator attack, holds with beta only; observability holds to depth 9")


def test_criterion_06_supervisor_golden(case2):
    sup = synthesize_ca_supervisor(case2.plant, case2.spec, case2.policy)
    restrictive = {x for x, c in sup.controls.items() if c != SIGMA}
    assert len(restrictive) == 1
    (state,) = restrictive
    assert state == sup.observer_state_for(W("alpha"))
    assert sup.controls[state] == {"beta", "lambda", "mu"}
    assert sup.estimates[state] == {"2", "3"}
    assert strip_injected(sup.observer.members[state]) == {"2", "3", "A", "D"}
    for other in sup.controls:
        if other != state:
            assert sup.controls[other] == SIGMA
    report(6, "supervisor restricts exactly the estimate-{2,3} state to {beta,lambda,mu}")


def test_criterion_07_closed_loop_language_equality(case2):
    sup = synthesize_ca_supervisor(case2.plant, case2.spec, case2.policy)
    verdict = verify_large_language_equals(case2.plant, case2.spec, sup, case2.policy)
    assert verdict.status == "holds"
    bf = brute_force_large_language(case2.plant, sup, case2.policy, depth=8)
    assert bf == enumerate_language(case2.spec, 8)
    report(7, "closed-loop upper bound equals the safety language (exact check and depth-8 recursion)")


def test_criterion_08_product_versus_recursion():
    started = time.perf_counter()
    rng = random.Random(8888)
    for _ in range(50):
        g, policy = random_model(rng, acyclic_attacks=True)
        h = random_spec(rng, g)
        sup = random_supervisor(rng, g, h, policy)
        lla = large_language_automaton(g, sup, policy)
        assert enumerate_language(lla.automaton, 6) == brute_force_large_language(
            g, sup, policy, depth=6
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(8, f"product construction matches the literal recursion on 50 random models ({elapsed:.1f}s)")


def test_criterion_09_observation_based_attacks(case2):
    strategy = make_cycle_strategy(case2)
    sup = synthesize_obs_based(case2.plant, case2.spec, strategy)
    assert sup.estimate_for(W("alpha")) == {"2", "3"}
    assert sup.control_for(W("alpha")) == {"beta", "lambda", "mu"}
    from descat import convert_observation_based, natural_projection

    conv = convert_observation_based(case2.plant, strategy)
    for word in sorted(enumerate_language(case2.plant, 8)):
        via_policy = phi_enumerate(word, conv.product, conv.policy, depth=16)
        via_omega = phi_omega(
            natural_projection(word, case2.alphabet), strategy, case2.alphabet, depth=16
        )
        assert via_policy.strings == via_omega.strings
    report(9, "observation-based attack converts faithfully; estimate {2,3} and control {beta,lambda,mu} for 'alpha'")


def test_criterion_10_maximal_permissiveness_sampled(case2):
    base = synthesize_ca_supervisor(case2.plant, case2.spec, case2.policy)
    rng = random.Random(1010)
    mutants = []
    current = base
    guard = 0
    while len(mutants) < 20 and guard < 400:
        guard += 1
        state = rng.choice(sorted(current.controls))
        removable = sorted(
            current.controls[state]
            - case2.alphabet.uncontrollable
            - case2.alphabet.actuator_attackable
        )
        if not removable:
            current = base
            continue
        candidate = current.with_control(state, current.controls[state] - {rng.choice(removable)})
        if verify_large_language_equals(case2.plant, case2.spec, candidate, case2.policy).holds:
            mutants.append(candidate)
            current = candidate
        else:
            current = base
    assert len(mutants) == 20
    for mutant in mutants:
        assert compare_permissiveness(mutant, base) in ("equal", "strictly-less")
    for i in range(len(mutants)):
        for j in range(i + 1, len(mutants)):
            union = supervisor_union(mutants[i], mutants[j])
            assert verify_large_language_equals(
                case2.plant, case2.spec, union, case2.policy
            ).holds
    report(10, "20 sampled valid supervisors are below the synthesized one; all pairwise unions stay valid")


def test_criterion_11_simulation_safety(case2):
    sup = synthesize_ca_supervisor(case2.plant, case2.spec, case2.policy)
    campaign = run_campaign(
        case2.plant, case2.spec, sup, case2.policy,
        trials=1000, max_steps=20, base_seed=0,
        attacker=AttackerStrategy(kind="random"),
    )
    assert campaign.violation_count == 0

    exhaustive = run_campaign(
        case2.plant, case2.spec, sup, case2.policy,
        actuator_attackable={"alpha", "beta"},
        trials=1, max_steps=4, base_seed=0,
        attacker=AttackerStrategy.exhaustive(),
    )
    assert exhaustive.violation_count >= 1
    assert W("alpha alpha") in exhaustive.distinct_violations

    one = simulate(case2.plant, case2.spec, sup, case2.policy, max_steps=30, seed=424)
    two = simulate(case2.plant, case2.spec, sup, case2.policy, max_steps=30, seed=424)
    assert one.to_text() == two.to_text()
    report(11, "1000-trial campaign is clean; exhaustive attacker reproduces the alpha escape; traces replay byte-for-byte")
