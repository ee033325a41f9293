"""One run of one benchmark workload, in the process that ``run.py`` starts.

The run generates its models from the seed, sets them up several times
(``setup_s`` is the median), then repeats rounds over them until
``--seconds`` have passed.  A round drives every model through the stages
of the command line in order: ``check-*``, ``synthesize``, ``verify`` and
``simulate`` (a random-attacker campaign and an exhaustive-attacker depth
sweep).  Each time is the sum over models of the median over rounds, and
the bounded ones are divided by the time of a fixed reference task (see
``Reference``).  The outputs are checked against answers known by
construction, against an independent walk of the plant and spec, and, for
seed 0, against digests recorded in ``digests.json``.

With ``--trace 1`` the rounds also call the layers' public functions one by
one, record a span around every call and report per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import random
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import families
from descat import (
    AttackerStrategy,
    ModelDocument,
    ObservationAttackStrategy,
    SensorAttackPolicy,
    build_ca_observer,
    build_g_diamond,
    check_ca_controllability,
    check_ca_observability_bounded,
    convert_observation_based,
    erase_unobservable,
    large_language_automaton,
    parallel_compose_pairs,
    parse_model,
    run_campaign,
    simulate,
    sub_automaton,
    subset_construction,
    synthesize_ca_supervisor,
    synthesize_obs_based,
    validate_policy,
    validate_strategy,
    verify_large_language_equals,
)

HERE = Path(__file__).resolve().parent
MEMORY_MB = 2048  # address-space limit of the workload process
SETUP_REPEATS = 3  # set-ups before the rounds; one more runs before each round
STATE_FOR_REPEATS = 20
SHORT, LONG = 50, 400
# Policy entries of each obs-attack plant.  build_g_diamond rebuilds the
# automaton once per entry, so its cost grows faster than the count.
OBS_ENTRIES = 350

# The bounded metrics divide each round's times by the time of a fixed
# reference task sampled during that round (unit "ref"); the seconds
# themselves are printed too.  See ``Reference``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "check_ref": "ref",
    "synthesize_ref": "ref",
    "verify_ref": "ref",
    "pipeline_ref": "ref",
    "campaign_steps_per_ref": "1/ref",
    "exhaustive_ref": "ref",
    "peak_rss_mb": "MB",
}
SECONDS_UNITS = {
    "check_s": "s",
    "synthesize_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "campaign_steps_per_s": "1/s",
    "exhaustive_s": "s",
}
REFERENCE = ("", "reference_s")

PER_LAYER_UNITS = {
    "modelfile.parse_s": "s",
    "modelfile.bytes": "bytes",
    "attacks.validate_s": "s",
    "attacks.convert_s": "s",
    "attacks.policy_entries": "count",
    "automata.compose_s": "s",
    "estimation.diamond_s": "s",
    "estimation.diamond_states": "count",
    "estimation.diamond_us_per_entry": "us",
    "estimation.observer_s": "s",
    "estimation.observer_states": "count",
    "estimation.observer_us_per_state": "us",
    "automata.subset_s": "s",
    "automata.subset_states": "count",
    "automata.subset_us_per_state": "us",
    "estimation.state_for_us_50": "us",
    "estimation.state_for_us_400": "us",
    "synthesis.controls_s": "s",
    "synthesis.supervisor_states": "count",
    "verification.controllability_s": "s",
    "verification.observability_s": "s",
    "verification.lla_s": "s",
    "verification.lla_states": "count",
    "verification.lla_us_per_state": "us",
    "verification.equality_s": "s",
    "verification.cex_len": "events",
    "simulation.step_us_50": "us",
    "simulation.step_us_400": "us",
    "simulation.step_growth": "ratio",
    "simulation.steps": "count",
    "simulation.coverage_ratio": "ratio",
    "simulation.violations": "count",
    "simulation.exhaustive_s_lo": "s",
    "simulation.exhaustive_s_mid": "s",
    "simulation.exhaustive_s_hi": "s",
}


@dataclass(frozen=True)
class ModelPlan:
    """One generated model and what a round does with it."""

    name: str
    text: str
    safe: bool  # whether the supervisor is known to keep the plant safe
    campaigns: tuple[tuple[int, int], ...]  # (max_steps, trials)
    sweep: tuple[int, ...]  # exhaustive-attacker depths
    depth: int  # observability depth
    # A fixed corpus model: its supervisor is built in set-up, and its sweep,
    # which is deep and takes seconds, runs in the first round only.
    corpus: bool = False


@dataclass
class Model:
    """A parsed model with the setups its stages take."""

    plan: ModelPlan
    doc: ModelDocument
    g: object
    h: object
    attack: object  # SensorAttackPolicy or ObservationAttackStrategy
    vg: object  # transition-based verification setup (converted for observation attacks)
    vh: object
    vpolicy: SensorAttackPolicy
    sup: object = None  # the set-up supervisor of a corpus model

    @property
    def observation_based(self) -> bool:
        return isinstance(self.attack, ObservationAttackStrategy)


def _plans(workload: str, seed: int) -> list[ModelPlan]:
    """The models of a workload; random model ``i`` is generated from ``seed * 100 + i``."""
    if workload == "certify":
        return [
            # One random plant also runs long campaigns, for the per-layer
            # step costs; their cost varies too much between plants to be
            # summed over all eight.
            ModelPlan(f"certify{i}", families.certify_text(seed * 100 + i, 8, 8), True,
                      ((SHORT, 8), (LONG, 2)) if i == 0 else ((SHORT, 8),), (2, 3, 4), 3)
            for i in range(8)
        ] + [
            # The corpus models are attacked as in the ROADMAP baseline:
            # long campaigns and the exhaustive attacker at large depths.
            ModelPlan("cycle_beta", families.CYCLE_BETA, True,
                      ((SHORT, 40), (LONG, 4)), (16, 18, 20), 8, True),
            ModelPlan("cycle", families.CYCLE, False, (), (4,), 4, True),
        ]
    if workload == "refute":
        return [
            ModelPlan(f"refute{i}", families.refute_text(seed * 100 + i, 12, 10), False,
                      ((SHORT, 12), (LONG, 1)), (2, 3, 4), 3)
            for i in range(8)
        ]
    if workload == "obs-attack":
        return [
            ModelPlan(f"obs{i}", families.obs_text(seed * 100 + i, OBS_ENTRIES, 6), True,
                      ((SHORT, 12), (LONG, 1)), (2, 3, 4), 3)
            for i in range(4)
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify", "refute", "obs-attack")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    model: str


class Reference:
    """Samples the time of a fixed task of the benchmark's own.

    The task is the generator's attacked-observer count over fixed random
    modules: pure-Python set and dict work of the same kind as the
    library's constructions, without the library.  On a shared machine the
    whole process runs up to twice as slowly for minutes at a time.  The
    task is sampled between library calls, at most every ``INTERVAL_S``,
    and each round's times are divided by the median of the samples taken
    during it, which removes most of that swing from the bounded metrics
    while a change to the library moves them as it moves the seconds.  One
    sample varies by about a fifth from the next, so a round needs many.
    """

    INTERVAL_S = 0.25

    def __init__(self) -> None:
        rng = random.Random(0)
        self.modules = [families._certify_module(rng, m, 8) for m in range(24)]
        self.samples: list[tuple[float, float]] = []  # (end time, task seconds)

    def sample(self, due_only: bool = False) -> None:
        if due_only and self.samples and time.perf_counter() - self.samples[-1][0] < self.INTERVAL_S:
            return
        start = time.perf_counter()
        for i, (states, _, delta) in enumerate(self.modules):
            families._observer_size(states, delta, i % 4)
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def median_since(self, first: int) -> float:
        return statistics.median(d for _, d in self.samples[first:])


@dataclass
class Recorder:
    """Times library calls into per-round sums and, when tracing, keeps spans."""

    tracing: bool
    reference: Reference | None = None  # sampled between calls when given
    spans: list[Span] = field(default_factory=list)
    sums: dict[tuple[str, str], float] = field(default_factory=dict)  # (model, key) -> value
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def add(self, model: str, key: str, value: float) -> None:
        self.sums[(model, key)] = self.sums.get((model, key), 0.0) + value

    def call(self, name: str, model: str, into: tuple[str, ...], fn, *args, **kwargs):
        """Run one library call, add its seconds to each key of ``into``.

        Returns the result, or None after recording the exception as a
        failed operation.
        """
        self.attempted += 1
        if self.reference is not None:
            self.reference.sample(due_only=True)
        # Every call starts from an empty young generation and then runs
        # with the collector on, so it pays for the collections its own
        # allocations cause and for no one else's.
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any raise, MemoryError included, is a failed operation
            self.failures.append(f"{model}: {name} raised {exc!r}")
            return None
        finally:
            end = time.perf_counter()
        for key in into:
            self.add(model, key, end - start)
        if self.tracing:
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, start, end, parent, model))
        return result

    def open(self, name: str, model: str) -> None:
        if self.tracing:
            self.spans.append(Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None, model))
            self._open.append(len(self.spans) - 1)

    def close(self) -> None:
        if self.tracing:
            self.spans[self._open.pop()].end = time.perf_counter()

    def fail(self, model: str, message: str) -> None:
        self.failures.append(f"{model}: {message}")


def pin_to_quiet_cpu(cpus: list[int]) -> None:
    """Pin this process to the CPU of ``cpus`` that runs a fixed loop fastest now.

    On a shared machine one CPU can run half again slower than another for
    tens of seconds at a time while another tenant keeps its sibling
    thread busy, and the scheduler moves a process between them.  Choosing
    again before every round keeps the run on the quieter CPU.
    """
    def probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            counts: dict[int, int] = {}
            for i in range(20000):
                counts[i % 97] = counts.get(i % 97, 0) + i
            best = min(best, time.perf_counter() - start)
        return best

    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(cpus, key=probe)})


def set_up(plans: list[ModelPlan], rec: Recorder) -> list[Model]:
    """Parse every model and build the setups its stages take."""
    models = []
    for plan in plans:
        doc = rec.call("modelfile.parse_model", plan.name, ("modelfile.parse_s",), parse_model, plan.text)
        if doc is None:
            continue
        g, h = doc.plant, doc.spec_automaton()
        if doc.has_observation_strategy:
            attack = doc.strategy()
            conversion = convert_observation_based(g, attack)
            safe = frozenset(n for n, (q, _) in conversion.pairs.items() if q in h.states)
            vg, vh, vpolicy = conversion.product, sub_automaton(conversion.product, safe), conversion.policy
        else:
            attack = doc.policy()
            vg, vh, vpolicy = g, h, attack
        model = Model(plan, doc, g, h, attack, vg, vh, vpolicy)
        if plan.corpus:
            model.sup = rec.call("synthesis.synthesize", plan.name, (), _synthesize, model)
        models.append(model)
    return models


def _synthesize(m: Model):
    if m.observation_based:
        return synthesize_obs_based(m.g, m.h, m.attack)
    return synthesize_ca_supervisor(m.g, m.h, m.attack)


@dataclass
class Outputs:
    """What one model's round produced, for the checks."""

    verdicts: dict = field(default_factory=dict)
    sup: object = None
    reports: dict = field(default_factory=dict)
    exhaustive: dict = field(default_factory=dict)


def run_round(models: list[Model], rec: Recorder, seed: int, first: bool = True) -> dict[str, Outputs]:
    """Drive every model through the pipeline once; sums go to ``rec.sums``.

    Corpus models are swept only when ``first`` is set.
    """
    outputs = {}
    for m in models:
        name = m.plan.name
        out = outputs[name] = Outputs()
        rec.open("bench.pipeline", name)
        _pipeline(m, rec, out, seed)
        rec.close()
        if out.sup is None:
            continue
        attacked = m.sup or out.sup
        for max_steps, trials in m.plan.campaigns:
            if max_steps != SHORT:
                out.reports[max_steps] = _campaign(m, rec, attacked, max_steps, trials, seed)
        for i, depth in enumerate(m.plan.sweep if first or not m.plan.corpus else ()):
            out.exhaustive[depth] = rec.call(
                "simulation.simulate", name, ("exhaustive_s", f"exhaustive_s_{i}", f"exhaustive_s_d{depth}"), simulate,
                m.g, m.h, attacked, m.attack, attacker=AttackerStrategy.exhaustive(), max_steps=depth)
        if rec.tracing:
            _probe_layers(m, out.sup, rec)
    return outputs


def _pipeline(m: Model, rec: Recorder, out: Outputs, seed: int) -> None:
    """Check, synthesize, verify, then the short campaign: what ``pipeline_s`` sums."""
    name = m.plan.name
    out.verdicts["controllability"] = rec.call(
        "verification.check_ca_controllability", name,
        ("check_s", "pipeline_s", "verification.controllability_s"),
        check_ca_controllability, m.g, m.h)
    out.verdicts["observability"] = rec.call(
        "verification.check_ca_observability_bounded", name,
        ("check_s", "pipeline_s", "verification.observability_s"),
        check_ca_observability_bounded, m.vg, m.vh, m.vpolicy, depth=m.plan.depth)
    out.sup = rec.call("synthesis.synthesize", name, ("synthesize_s", "pipeline_s"), _synthesize, m)
    if out.sup is None:
        return
    out.verdicts["verify"] = rec.call(
        "verification.verify_large_language_equals", name, ("verify_s", "pipeline_s"),
        verify_large_language_equals, m.vg, m.vh, out.sup, m.vpolicy)
    for max_steps, trials in m.plan.campaigns:
        if max_steps == SHORT:
            out.reports[max_steps] = _campaign(m, rec, m.sup or out.sup, max_steps, trials, seed, "pipeline_s")


def _campaign(m: Model, rec: Recorder, sup, max_steps: int, trials: int, seed: int, *keys: str):
    return rec.call(
        "simulation.run_campaign", m.plan.name, (f"campaign_s_{max_steps}",) + keys, run_campaign,
        m.g, m.h, sup, m.attack, trials=trials, max_steps=max_steps,
        base_seed=seed * 1000, attacker=AttackerStrategy.random_choices())


def _probe_layers(m: Model, sup, rec: Recorder) -> None:
    """Call the layers under synthesis and verification one by one (traced runs only)."""
    name = m.plan.name
    if m.observation_based:
        rec.call("attacks.validate_strategy", name, ("attacks.validate_s",), validate_strategy, m.g, m.attack)
        conversion = rec.call("attacks.convert_observation_based", name, ("attacks.convert_s",),
                              convert_observation_based, m.h, m.attack)
        rec.call("automata.parallel_compose_pairs", name, ("automata.compose_s",),
                 parallel_compose_pairs, m.h, m.attack.sa)
        if conversion is None:
            return
        target, policy = conversion.product, conversion.policy
    else:
        rec.call("attacks.validate_policy", name, ("attacks.validate_s",), validate_policy, m.g, m.attack)
        rec.call("attacks.SensorAttackPolicy.uniform", name, ("attacks.convert_s",), SensorAttackPolicy.uniform,
                 m.g, m.doc.policy_events, overrides=m.doc.policy_transitions)
        rec.call("automata.sub_automaton", name, ("automata.compose_s",), sub_automaton, m.g, m.doc.safe_states)
        target, policy = m.h, m.attack.restricted_to(m.h)[0]
    diamond = rec.call("estimation.build_g_diamond", name, ("estimation.diamond_s",), build_g_diamond, target, policy)
    if diamond is not None:
        erased = erase_unobservable(diamond)
        found = rec.call("automata.subset_construction", name, ("automata.subset_s",),
                         subset_construction, erased.automaton)
        rec.add(name, "estimation.diamond_states", len(diamond.automaton.states))
        if found is not None:
            rec.add(name, "automata.subset_states", len(found[0].states))
    observer = rec.call("estimation.build_ca_observer", name, ("estimation.observer_s",),
                        build_ca_observer, target, policy)
    if observer is not None:
        rec.add(name, "estimation.observer_states", len(observer.observer.states))
    rec.add(name, "attacks.policy_entries", len(policy.entries))
    rec.add(name, "synthesis.supervisor_states", len(sup.controls))
    lla = rec.call("verification.large_language_automaton", name, ("verification.lla_s",),
                   large_language_automaton, m.vg, sup, m.vpolicy)
    if lla is not None:
        rec.add(name, "verification.lla_states", len(lla.automaton.states))


def replay(models: list[Model], outputs: dict[str, Outputs], seed: int) -> dict[str, dict]:
    """Re-run every campaign trial with ``simulate`` to get its steps and trace.

    Campaign trial ``i`` is ``simulate`` with seed ``base_seed + i``, so the
    traces are those of the timed campaigns.
    """
    found = {}
    for m in models:
        out = outputs[m.plan.name]
        attacked = m.sup or out.sup
        runs = {}
        for max_steps, trials in m.plan.campaigns:
            runs[max_steps] = [
                simulate(m.g, m.h, attacked, m.attack, attacker=AttackerStrategy.random_choices(),
                         max_steps=max_steps, seed=seed * 1000 + i)
                for i in range(trials)
            ]
        found[m.plan.name] = runs
    return found


def probe_state_for(models, outputs, traces, rec: Recorder) -> None:
    """Time ``CAObserver.state_for`` on the observations of campaign traces.

    The calls take microseconds, so, as in ``timeit``, the collector is off
    while they run and a collection is not charged to one of them.
    """
    gc.collect()
    gc.disable()
    try:
        _state_for_calls(models, outputs, traces, rec)
    finally:
        gc.enable()


def _state_for_calls(models, outputs, traces, rec: Recorder) -> None:
    for m in models:
        observer = (m.sup or outputs[m.plan.name].sup).observer
        for max_steps, runs in traces[m.plan.name].items():
            for trace in runs:
                observation = trace.observation
                for _ in range(STATE_FOR_REPEATS):
                    rec.call("estimation.state_for", m.plan.name, (f"state_for_s_{max_steps}",),
                             observer.state_for, observation)
                rec.add(m.plan.name, f"state_for_calls_{max_steps}", STATE_FOR_REPEATS)


# --- checks -------------------------------------------------------------------


def _walk(g, word, safe: frozenset[str] | None) -> str | None:
    """Walk ``word`` over the raw transition triples of ``g``, inside ``safe``
    when given; None when the walk is blocked."""
    step = {(src, e): dst for src, e, dst in g.transitions}
    q = g.initial
    for event in word:
        q = step.get((q, event))
        if q is None or (safe is not None and q not in safe):
            return None
    return q


def check_outputs(m: Model, out: Outputs, traces: dict, rec: Recorder) -> None:
    """Compare one model's outputs with what is known about it."""
    name = m.plan.name
    if any(v is None for v in out.verdicts.values()) or out.sup is None:
        return  # already counted as failed
    verify = out.verdicts["verify"]
    if m.plan.safe:
        for check, verdict in out.verdicts.items():
            if verdict.status not in ("holds", "holds-to-depth"):
                rec.fail(name, f"{check} is {verdict.status}, expected to hold by construction")
    elif verify.holds or out.verdicts["controllability"].holds:
        rec.fail(name, "verification holds on a model built to fail")
    for check, verdict in out.verdicts.items():
        if not verdict.holds:
            _check_counterexample(m, check, verdict.counterexample, rec)
    for max_steps, report in out.reports.items():
        if report is None:
            continue
        runs = traces[max_steps]
        unsafe = sum(1 for t in runs if not t.safe)
        if report.violation_count != unsafe:
            rec.fail(name, f"campaign at {max_steps} steps reports {report.violation_count} violations, replay {unsafe}")
        if m.plan.safe and unsafe:
            rec.fail(name, f"campaign at {max_steps} steps violates a verified supervisor")
    for depth, trace in out.exhaustive.items():
        if trace is None:
            continue
        if m.plan.safe and not trace.safe:
            rec.fail(name, f"exhaustive attacker at depth {depth} breaks a verified supervisor")
        if name == "cycle" and trace.plant_string != ("alpha", "alpha"):
            rec.fail(name, f"exhaustive attacker found {trace.plant_string}, expected alpha alpha")


def _check_counterexample(m: Model, check: str, ce, rec: Recorder) -> None:
    """The string lies in the spec, and its extension is on the side claimed."""
    g, h = (m.g, m.h) if check == "controllability" else (m.vg, m.vh)
    if _walk(g, ce.string, h.states) is None:
        rec.fail(m.plan.name, f"{check} counterexample {ce.string} is not in the spec")
        return
    extended = ce.string + (ce.event,)
    in_plant = _walk(g, extended, None) is not None
    in_spec = _walk(g, extended, h.states) is not None
    if check == "verify":
        claimed_in_spec = "outside" not in ce.witness
    else:  # controllability: an event escapes; observability: a spec event is forced off
        claimed_in_spec = check == "observability"
    if not in_plant or in_spec != claimed_in_spec:
        rec.fail(m.plan.name, f"{check} counterexample {ce.string} + {ce.event} is not on the side its verdict claims")


def digests(models: list[Model], outputs: dict[str, Outputs], traces: dict) -> dict[str, str]:
    """SHA-256 of the byte-stable outputs: supervisor tables, trace text, verdict JSON."""
    tables, texts, verdicts = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for m in models:
        out = outputs[m.plan.name]
        rows = [
            {"state": s, "estimate": sorted(out.sup.estimates[s]), "control": sorted(out.sup.controls[s])}
            for s in sorted(out.sup.controls)
        ]
        tables.update(json.dumps({"default_control": sorted(out.sup.default_control), "states": rows}).encode())
        for check in sorted(out.verdicts):
            verdicts.update(json.dumps({"check": check, **out.verdicts[check].as_dict()}).encode())
        for max_steps in sorted(traces[m.plan.name]):
            for trace in traces[m.plan.name][max_steps]:
                texts.update(trace.to_text().encode())
        for depth in sorted(out.exhaustive):
            texts.update(out.exhaustive[depth].to_text().encode())
    return {"supervisor_tables": tables.hexdigest(), "trace_text": texts.hexdigest(),
            "verdict_json": verdicts.hexdigest()}


# --- metrics ------------------------------------------------------------------


def _total(rounds: list[dict], key: str, per_reference: bool = False) -> float:
    """Sum over models of the median over rounds of one model's value of ``key``,
    each divided by its round's reference time when ``per_reference`` is set.

    Medians per model, rather than of per-round sums, keep one slow call
    from moving the total.
    """
    models = {m for r in rounds for m, k in r if k == key and m}
    return sum(
        statistics.median(r[(m, key)] / (r[REFERENCE] if per_reference else 1.0) for r in rounds if (m, key) in r)
        for m in models
    )


def _per(a: float, b: float, scale: float = 1.0) -> float:
    """``scale * a / b``, or 0 when an operation failed and left ``b`` at 0."""
    return scale * a / b if b else 0.0


def end_to_end(rounds, steps, setup_times, peak_rss_mb, per_reference: bool) -> dict[str, float]:
    """The end-to-end metrics, in reference units or, without ``per_reference``, in seconds."""
    unit = "ref" if per_reference else "s"
    out = {
        f"{name}_{unit}": _total(rounds, f"{name}_s", per_reference)
        for name in ("check", "synthesize", "verify", "pipeline")
    }
    out[f"campaign_steps_per_{unit}"] = _per(steps[SHORT], _total(rounds, f"campaign_s_{SHORT}", per_reference))
    out[f"exhaustive_{unit}"] = _total(rounds, "exhaustive_s", per_reference)
    if per_reference:
        out = {"setup_s": statistics.median(setup_times), **out, "peak_rss_mb": peak_rss_mb}
    return out


def per_layer(rounds, setup_rounds, steps, coverage, violations, cex_lengths) -> dict[str, float]:
    med = defaultdict(float, {key: _total(rounds, key) for key in {k for r in rounds for _, k in r}})
    out = {
        "modelfile.parse_s": _total(setup_rounds, "modelfile.parse_s"),
        "modelfile.bytes": _total(setup_rounds, "modelfile.bytes"),
        "attacks.validate_s": med["attacks.validate_s"],
        "attacks.convert_s": med["attacks.convert_s"],
        "attacks.policy_entries": med["attacks.policy_entries"],
        "automata.compose_s": med["automata.compose_s"],
        "estimation.diamond_s": med["estimation.diamond_s"],
        "estimation.diamond_states": med["estimation.diamond_states"],
        "estimation.diamond_us_per_entry": _per(med["estimation.diamond_s"], med["attacks.policy_entries"], 1e6),
        "estimation.observer_s": med["estimation.observer_s"],
        "estimation.observer_states": med["estimation.observer_states"],
        "estimation.observer_us_per_state": _per(med["estimation.observer_s"], med["estimation.observer_states"], 1e6),
        "automata.subset_s": med["automata.subset_s"],
        "automata.subset_states": med["automata.subset_states"],
        "automata.subset_us_per_state": _per(med["automata.subset_s"], med["automata.subset_states"], 1e6),
        "synthesis.controls_s": med["synthesize_s"] - med["estimation.observer_s"],
        "synthesis.supervisor_states": med["synthesis.supervisor_states"],
        "verification.controllability_s": med["verification.controllability_s"],
        "verification.observability_s": med["verification.observability_s"],
        "verification.lla_s": med["verification.lla_s"],
        "verification.lla_states": med["verification.lla_states"],
        "verification.lla_us_per_state": _per(med["verification.lla_s"], med["verification.lla_states"], 1e6),
        "verification.equality_s": med["verify_s"] - med["verification.lla_s"],
        "verification.cex_len": statistics.median(cex_lengths) if cex_lengths else -1,
        "simulation.steps": sum(steps.values()),
        "simulation.coverage_ratio": coverage,
        "simulation.violations": violations,
    }
    for n in (SHORT, LONG):
        out[f"estimation.state_for_us_{n}"] = _per(med[f"state_for_s_{n}"], med[f"state_for_calls_{n}"], 1e6)
        out[f"simulation.step_us_{n}"] = _per(med[f"campaign_s_{n}"], steps[n], 1e6)
    out["simulation.step_growth"] = _per(out[f"simulation.step_us_{LONG}"], out[f"simulation.step_us_{SHORT}"])
    for i, label in enumerate(("lo", "mid", "hi")):
        out[f"simulation.exhaustive_s_{label}"] = med[f"exhaustive_s_{i}"]
    return out


def layer_self_times(spans: list[Span], rounds: int) -> dict[str, float]:
    """Seconds per round spent in each layer's own spans, children excluded."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        layer = span.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (span.end - span.start - children) / rounds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true", help="print the output digests and exit")
    args = parser.parse_args(argv)
    limit = MEMORY_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    warnings.simplefilter("ignore")  # policy entries outside the spec are dropped with a warning

    cpus = sorted(os.sched_getaffinity(0))
    setup_times, setup_rounds = [], []

    def timed_set_up():
        pin_to_quiet_cpu(cpus)
        _settle()
        setup = Recorder(tracing=False)
        start = time.perf_counter()
        plans = _plans(args.workload, args.seed)
        models = set_up(plans, setup)
        setup_times.append(time.perf_counter() - start)
        setup.add("all", "modelfile.bytes", float(sum(len(p.text.encode()) for p in plans)))
        setup_rounds.append(setup.sums)
        return plans, models, setup

    for _ in range(SETUP_REPEATS):
        plans, models, setup = timed_set_up()
    # Operations and failures of one set-up count; the repeats only time it.
    reference = Reference()
    rec = Recorder(tracing=bool(args.trace), reference=reference, attempted=setup.attempted, failures=setup.failures)

    if args.trace:
        _settle()
        untraced = Recorder(tracing=False)
        run_round(models, untraced, args.seed, first=False)
        overhead_base = _total([untraced.sums], "pipeline_s")
    rounds = []
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        # Set-ups spread over the run sample the machine as the rounds do.
        timed_set_up()
        pin_to_quiet_cpu(cpus)
        _settle()
        reference.sample()
        first_sample = len(reference.samples) - 1
        rec.sums = {}
        outputs = run_round(models, rec, args.seed, first is None)
        reference.sample()
        rec.sums[REFERENCE] = reference.median_since(first_sample)
        first = first or outputs
        rounds.append(rec.sums)

    traces = replay(models, first, args.seed)
    for m in models:
        check_outputs(m, first[m.plan.name], traces[m.plan.name], rec)
    found = digests(models, first, traces) if not rec.failures else {}
    if args.digests:
        print(json.dumps({args.workload: found}, indent=2, sort_keys=True))
        return 0
    if args.seed == 0:
        expected = json.loads((HERE / "digests.json").read_text()).get(args.workload)
        if expected != found:
            rec.fail(args.workload, f"output digests {found} differ from the recorded {expected}")

    steps = {n: sum(len(t.steps) for runs in traces.values() for t in runs.get(n, ())) for n in (SHORT, LONG)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        rec.sums = {}
        probe_state_for(models, first, traces, rec)
        for r in rounds:
            r.update(rec.sums)
        reports = [rep for out in first.values() for rep in out.reports.values() if rep is not None]
        coverage = _per(sum(r.observer_states_visited for r in reports), sum(r.observer_states_total for r in reports))
        violations = sum(r.violation_count for r in reports)
        cex = [len(o.verdicts["verify"].counterexample.string) for o in first.values()
               if o.verdicts.get("verify") is not None and not o.verdicts["verify"].holds]
        metrics = per_layer(rounds, setup_rounds, steps, coverage, violations, cex)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(rounds, steps, setup_times, peak_rss_mb, per_reference=True)
        units = END_TO_END_UNITS
        seconds = end_to_end(rounds, steps, setup_times, peak_rss_mb, per_reference=False)

    attempted = rec.attempted
    failed = len(rec.failures)
    print(f"# workload {args.workload}, seed {args.seed}, {len(rounds)} round(s) of {len(models)} model(s), "
          f"trace {args.trace}")
    for failure in rec.failures:
        print(f"# FAILED {failure}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    if not args.trace:
        reference_s = statistics.median(r[REFERENCE] for r in rounds)
        print(f"reference task: {1e3 * reference_s:.6g} ms, median over rounds ({len(reference.samples)} samples)")
        print(f"setup_ref = {metrics['setup_s'] / reference_s:.6g} ref")
        for key, value in seconds.items():
            print(f"{key} = {value:.6g} {SECONDS_UNITS[key]}")
    print(f"failed_frac = {failed / attempted:.6g} (failed {failed} of {attempted} operations)")
    if args.trace:
        depths = sorted({d for p in plans for d in p.sweep})
        for depth in depths:
            print(f"simulation.exhaustive_s_d{depth} = {_total(rounds, f'exhaustive_s_d{depth}'):.6g} s")
        if not {16, 18, 20} <= set(depths):
            print(f"simulation.exhaustive_s_d16/d18/d20: absent, this workload sweeps depths {depths}; "
                  "the certify workload sweeps cycle_beta at 16, 18 and 20")
        for layer, seconds in sorted(layer_self_times(rec.spans, len(rounds)).items()):
            print(f"self time per round: {layer} = {seconds:.6g} s")
        traced = _total(rounds, "pipeline_s")
        print(f"tracing overhead: pipeline_s {traced:.6g} s traced against {overhead_base:.6g} s untraced "
              f"({100 * (_per(traced, overhead_base) - 1):+.1f} %)")
        _write_spans(rec.spans, args)
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


def _settle() -> None:
    """Collect, then freeze what is left: the models and whatever else
    outlives a round (the first outputs, the spans), so a full collection
    inside a timed call does not also walk the benchmark's own data."""
    gc.collect()
    gc.freeze()


def _write_spans(spans: list[Span], args) -> None:
    out = HERE.parent / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.__dict__) + "\n")
    print(f"spans: {len(spans)} written to {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    sys.exit(main())
