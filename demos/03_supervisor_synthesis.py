#!/usr/bin/env python3
"""Deciding solvability and synthesizing the maximally-permissive supervisor.

Contrasts the two actuator-attack configurations of the cycle model: with
both actuators exposed no safe supervisor exists; with beta alone the
synthesized supervisor provably confines the closed loop to the spec.  On
both, the paper's theorem is checked: the synthesized supervisor's closed
loop equals the spec iff the spec is CA-controllable and CA-observable.
"""

from pathlib import Path

from descat import (
    check_ca_controllability,
    check_ca_observability_bounded,
    enumerate_language,
    large_language_automaton,
    load_model,
    synthesize_ca_supervisor,
    verify_large_language_equals,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def main():
    for name in ("cycle.des", "cycle_beta_only.des"):
        doc = load_model(MODELS / name)
        g, h, policy = doc.plant, doc.spec_automaton(), doc.policy()
        verdict = check_ca_controllability(g, h)
        print(f"{name}: CA-controllability {verdict.status}")
        if not verdict.holds:
            ce = verdict.counterexample
            print(f"   after '{' '.join(ce.string)}', the attacker can force '{ce.event}'"
                  f" ({ce.witness})")

        # Without a depth the check searches its finite arena to saturation: the answer is exact.
        obs_verdict = check_ca_observability_bounded(g, h, policy)
        print(f"   CA-observability {obs_verdict.status}")

        sup = synthesize_ca_supervisor(g, h, policy)
        equal = verify_large_language_equals(g, h, sup, policy)
        print(f"   closed-loop upper bound equals the spec: {equal.status}")
        assert equal.holds == (verdict.holds and obs_verdict.holds)
        if not equal.holds:
            continue

        print("   supervisor controls:")
        for state in sorted(sup.controls):
            print(f"      {state}: {{{','.join(sorted(sup.controls[state]))}}}")
        lla = large_language_automaton(g, sup, policy)
        assert enumerate_language(lla.automaton, 8) == enumerate_language(h, 8)
        print("   the product construction generates the spec up to depth 8")


if __name__ == "__main__":
    main()
