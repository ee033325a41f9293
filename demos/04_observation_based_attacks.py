#!/usr/bin/env python3
"""Observation-based sensor attacks and their transition-based rewriting.

The attacker follows the observation stream with a context automaton and
chooses corruption languages per context state.  Composing the plant with
that context reduces everything to the transition-based machinery.
"""

from pathlib import Path

from descat import (
    ModelDocument,
    convert_observation_based,
    load_model,
    natural_projection,
    phi_enumerate,
    phi_omega,
    serialize_model,
    synthesize_obs_based,
    enumerate_language,
    transition_based_setup,
    verify_large_language_equals,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def main():
    doc = load_model(MODELS / "cycle_obs.des")
    g, h, strategy = doc.plant, doc.spec_automaton(), doc.strategy()

    print("context automaton steps:",
          ", ".join(f"{s}-{e}->{d}" for s, e, d in sorted(strategy.sa.transitions)))
    print("corruption map entries:", ", ".join(f"({z},{e})" for z, e in sorted(strategy.omega)))
    print()

    conv = convert_observation_based(g, strategy)
    print("transition-based rewrite keys:")
    for tr in sorted(conv.policy.entries):
        print("   ", tr)

    print("\nboth attack descriptions corrupt every string identically (depth 8):")
    agree = 0
    for word in sorted(enumerate_language(g, 8)):
        via_policy = phi_enumerate(word, conv.product, conv.policy, depth=16).strings
        via_omega = phi_omega(natural_projection(word, g.alphabet), strategy, g.alphabet, depth=16).strings
        assert via_policy == via_omega
        agree += 1
    print(f"   checked {agree} strings")

    sup = synthesize_obs_based(g, h, strategy)
    print("\nsupervisor against the observation-based attacker:")
    print("   estimate after 'alpha':", "{" + ",".join(sorted(sup.estimate_for(("alpha",)))) + "}")
    print("   control  after 'alpha':", "{" + ",".join(sorted(sup.control_for(("alpha",)))) + "}")
    assert sup.estimate_for(("alpha",)) == {"2", "3"}
    assert sup.control_for(("alpha",)) == {"beta", "lambda", "mu"}
    verdict = verify_large_language_equals(g, h, sup, strategy)
    print("   closed loop against the strategy generates exactly the spec:", verdict.status)
    assert verdict.holds

    # The same rewrite as `descat convert-obs`: plant and spec composed with the context.
    plant, spec, policy = transition_based_setup(g, h, strategy)
    converted = ModelDocument(
        alphabet=plant.alphabet,
        plant=plant,
        safe_states=spec.states,
        policy_transitions=dict(policy.entries),
    )
    out = Path(__file__).resolve().parent / "cycle_converted.des"
    out.write_text(serialize_model(converted))
    print(f"\nwrote the rewritten model to {out.name}")


if __name__ == "__main__":
    main()
