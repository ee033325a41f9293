"""Command-line interface.

Every subcommand reads a `.des` model document.  Exit codes: 0 when the
requested check holds (or the run is safe), 1 when it fails (or a
violation was found), 2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .attacks import transition_based_setup
from .automata import Automaton
from .dot import export_dot
from .errors import DescatError
from .estimation import attacked_observer, build_g_diamond, state_estimate
from .modelfile import ModelDocument, load_model, serialize_model
from .simulation import AttackerStrategy, run_campaign
from .synthesis import Supervisor, synthesize_ca_supervisor
from .verification import (
    Verdict,
    check_ca_controllability,
    check_ca_observability_bounded,
    verify_large_language_equals,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2


def _fmt_set(items) -> str:
    return "{" + ",".join(sorted(items)) + "}"


def _events(text: str) -> tuple[str, ...]:
    """The event names in ``text``, separated by commas or whitespace."""
    return tuple(text.replace(",", " ").split())


def _actuator_attack(args) -> tuple[str, ...] | None:
    """``--actuator-attack``'s events, or None (the alphabet's own) when it is not given; empty means none."""
    return None if args.actuator_attack is None else _events(args.actuator_attack)


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")


def _target(doc: ModelDocument, which: str) -> Automaton:
    return doc.plant if which == "plant" else doc.spec_automaton()


def _synthesize(doc: ModelDocument) -> Supervisor:
    return synthesize_ca_supervisor(doc.plant, doc.spec_automaton(), doc.attack)


def _supervisor_rows(sup: Supervisor) -> list[dict]:
    rows = []
    for state in sorted(sup.controls):
        rows.append(
            {
                "state": state,
                "estimate": sorted(sup.estimates[state]),
                "control": sorted(sup.controls[state]),
            }
        )
    return rows


def _print_verdict(name: str, verdict: Verdict, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"check": name, **verdict.as_dict()}, indent=2))
    else:
        line = f"{name}: {verdict.status}"
        if verdict.depth is not None:
            line += f" (depth {verdict.depth})"
        print(line)
        if verdict.counterexample is not None:
            ce = verdict.counterexample
            prefix = " ".join(ce.string) if ce.string else "ε"
            print(f"  counterexample: after '{prefix}', event '{ce.event}'")
            if ce.witness:
                print(f"  note: {ce.witness}")
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _cmd_observer(doc: ModelDocument, args) -> int:
    observer, lift = attacked_observer(_target(doc, args.target), doc.attack)
    if args.dot:
        _write(export_dot(observer, name="observer"), args.dot)
    rows = [
        {
            "state": state,
            "estimate": sorted(lift(observer.plant_projection(state))),
            "marked": state in observer.observer.marked,
        }
        for state in sorted(observer.observer.states)
    ]
    if args.json:
        print(
            json.dumps(
                {
                    "target": args.target,
                    "initial": observer.observer.initial,
                    "states": rows,
                    "transitions": sorted(observer.observer.transitions),
                },
                indent=2,
            )
        )
    else:
        print(f"observer over the {args.target} ({len(rows)} states, initial {observer.observer.initial})")
        for row in rows:
            mark = "*" if row["marked"] else " "
            print(f"  {mark} {row['state']}  estimate {_fmt_set(row['estimate'])}")
        for src, event, dst in sorted(observer.observer.transitions):
            print(f"    {src} --{event}--> {dst}")
    return EXIT_HOLDS


def _cmd_estimate(doc: ModelDocument, args) -> int:
    observer, lift = attacked_observer(_target(doc, args.target), doc.attack)
    observation = _events(args.obs)
    estimate = sorted(lift(state_estimate(observer, observation)))
    if args.json:
        print(
            json.dumps(
                {"observation": list(observation), "estimate": estimate, "target": args.target},
                indent=2,
            )
        )
    else:
        print(_fmt_set(estimate))
    return EXIT_HOLDS


def _cmd_check_controllability(doc: ModelDocument, args) -> int:
    verdict = check_ca_controllability(doc.plant, doc.spec_automaton(), actuator_attackable=_actuator_attack(args))
    return _print_verdict("CA-controllability", verdict, args.json)


def _cmd_check_observability(doc: ModelDocument, args) -> int:
    verdict = check_ca_observability_bounded(doc.plant, doc.spec_automaton(), doc.attack, depth=args.depth)
    return _print_verdict("CA-observability", verdict, args.json)


def _cmd_synthesize(doc: ModelDocument, args) -> int:
    sup = _synthesize(doc)
    rows = _supervisor_rows(sup)
    if args.json:
        print(json.dumps({"default_control": sorted(sup.default_control), "states": rows}, indent=2))
    else:
        print("# observer-state, estimate, control")
        for row in rows:
            print(f"{row['state']}, {_fmt_set(row['estimate'])}, {_fmt_set(row['control'])}")
        print(f"default, -, {_fmt_set(sup.default_control)}")
    return EXIT_HOLDS


def _cmd_verify(doc: ModelDocument, args) -> int:
    sup = _synthesize(doc)
    verdict = verify_large_language_equals(doc.plant, doc.spec_automaton(), sup, doc.attack, _actuator_attack(args))
    return _print_verdict("large-language equality", verdict, args.json)


def _cmd_simulate(doc: ModelDocument, args) -> int:
    sup = _synthesize(doc)
    attacker = AttackerStrategy(kind=args.attacker)
    report = run_campaign(
        doc.plant,
        doc.spec_automaton(),
        sup,
        doc.attack,
        actuator_attackable=_actuator_attack(args),
        trials=args.trials,
        max_steps=args.max_steps,
        base_seed=args.seed,
        attacker=attacker,
    )
    if args.json:
        payload = report.as_dict()
        payload["violating_traces"] = [t.as_dict() for t in report.violating]
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"campaign: {report.trials} trial(s), attacker={report.attacker}, "
            f"max-steps={report.max_steps}, base-seed={report.base_seed}"
        )
        print(
            f"violations: {report.violation_count}; observer coverage: "
            f"{report.observer_states_visited}/{report.observer_states_total}"
        )
        for trace in report.violating:
            print("violating trace:")
            print(trace.to_text(), end="")
    return EXIT_FAILS if report.violation_count else EXIT_HOLDS


def _cmd_convert_obs(doc: ModelDocument, args) -> int:
    if not doc.has_observation_strategy:
        raise DescatError("the model has no observation-based attack sections to convert")
    spec = doc.spec_automaton() if doc.safe_states is not None else None
    plant, spec, policy = transition_based_setup(doc.plant, spec, doc.strategy())
    converted = ModelDocument(
        alphabet=plant.alphabet,
        plant=plant,
        safe_states=spec.states if spec is not None else None,
        policy_transitions=dict(policy.entries),
    )
    _write(serialize_model(converted), args.output)
    return EXIT_HOLDS


def _cmd_export_dot(doc: ModelDocument, args) -> int:
    what = args.what
    if what == "plant":
        obj = doc.plant
    elif what == "spec":
        obj = doc.spec_automaton()
    elif what == "sa":
        if not doc.has_observation_strategy:
            raise DescatError("the model has no attack-context automaton")
        obj = doc.sa
    elif what == "diamond":
        g, _, policy = transition_based_setup(doc.plant, None, doc.attack)
        obj = build_g_diamond(g, policy)
    else:  # observer
        obj, _ = attacked_observer(doc.plant, doc.attack)
    _write(export_dot(obj, name=what), args.output)
    return EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descat",
        description="Supervisory control of discrete event systems under sensor-actuator attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("model", help="path to a .des model document")
        p.set_defaults(func=func)
        return p

    p = add("observer", _cmd_observer, help="build the attack-aware observer")
    p.add_argument("--target", choices=("plant", "spec"), default="plant")
    p.add_argument("--dot", metavar="PATH", help="also write the observer as DOT")
    p.add_argument("--json", action="store_true")

    p = add("estimate", _cmd_estimate, help="state estimate for an attacked observation")
    p.add_argument("--obs", required=True, metavar="EVENTS", help="observation, e.g. 'alpha lambda mu'")
    p.add_argument("--target", choices=("plant", "spec"), default="plant")
    p.add_argument("--json", action="store_true")

    p = add("check-controllability", _cmd_check_controllability, help="decide CA-controllability")
    p.add_argument("--actuator-attack", metavar="EVENTS", help="override the attackable actuators")
    p.add_argument("--json", action="store_true")

    p = add("check-observability", _cmd_check_observability, help="exact CA-observability check")
    p.add_argument("--depth", type=int, default=None, help="string-length bound (default: none, the check is exact)")
    p.add_argument("--json", action="store_true")

    p = add("synthesize", _cmd_synthesize, help="emit the estimate-based supervisor table")
    p.add_argument("--json", action="store_true")

    p = add("verify", _cmd_verify, help="check that the closed loop generates exactly the spec")
    p.add_argument("--actuator-attack", metavar="EVENTS")
    p.add_argument("--json", action="store_true")

    p = add("simulate", _cmd_simulate, help="run attacked closed-loop campaigns")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attacker", choices=("none", "random", "exhaustive"), default="random")
    p.add_argument("--actuator-attack", metavar="EVENTS")
    p.add_argument("--json", action="store_true")

    p = add("convert-obs", _cmd_convert_obs, help="rewrite an observation-based attack as transition-based")
    p.add_argument("-o", "--output", metavar="PATH")

    p = add("export-dot", _cmd_export_dot, help="render a model component as DOT")
    p.add_argument("--what", choices=("plant", "spec", "observer", "diamond", "sa"), default="plant")
    p.add_argument("-o", "--output", metavar="PATH")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(load_model(args.model), args)
    except (DescatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
