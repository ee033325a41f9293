#!/usr/bin/env python3
"""Deciding solvability and synthesizing the maximally-permissive supervisor.

Contrasts the two actuator-attack configurations of the cycle model: with
both actuators exposed no safe supervisor exists; with beta alone the
synthesized supervisor provably confines the closed loop to the spec.
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
        g, h = doc.plant, doc.spec_automaton()
        verdict = check_ca_controllability(g, h)
        print(f"{name}: CA-controllability {verdict.status}")
        if not verdict.holds:
            ce = verdict.counterexample
            print(f"   after '{' '.join(ce.string)}', the attacker can force '{ce.event}'"
                  f" ({ce.witness})")
            continue

        obs_verdict = check_ca_observability_bounded(g, h, doc.policy(), depth=9)
        print(f"   CA-observability {obs_verdict.status} (depth {obs_verdict.depth})")

        sup = synthesize_ca_supervisor(g, h, doc.policy())
        print("   supervisor controls:")
        for state in sorted(sup.controls):
            print(f"      {state}: {{{','.join(sorted(sup.controls[state]))}}}")

        equal = verify_large_language_equals(g, h, sup, doc.policy())
        print(f"   closed-loop upper bound equals the spec: {equal.status}")
        assert equal.holds
        lla = large_language_automaton(g, sup, doc.policy())
        assert enumerate_language(lla.automaton, 8) == enumerate_language(h, 8)
        print("   the product construction generates the spec up to depth 8")


if __name__ == "__main__":
    main()
