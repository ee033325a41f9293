"""Supervisory control of discrete event systems under joint sensor-actuator attacks.

The package models plants as finite automata, sensor attacks as per-transition
(or observation-indexed) corruption languages and actuator attacks as
adversarial edits of issued controls.  On top of that it builds attack-aware
state estimators, decides CA-controllability, checks CA-observability up to a
bound, synthesizes the maximally-permissive estimate-based supervisor, and
verifies and simulates the attacked closed loop against a safety spec.
"""

from .attacks import (
    LanguageSample,
    ObservationAttackStrategy,
    ObservationConversion,
    SensorAttackPolicy,
    attacked_commands,
    convert_observation_based,
    delta_control,
    phi_enumerate,
    phi_omega,
    theta_automaton,
    transition_based_setup,
    validate_policy,
    validate_strategy,
)
from .automata import (
    EPSILON,
    Automaton,
    EventAlphabet,
    SubsetTable,
    accessible,
    bounded_marked_language,
    determinize,
    encode_pair,
    encode_state_set,
    enumerate_language,
    is_subautomaton,
    marked_word_length_bound,
    merge_alphabets,
    natural_projection,
    parallel_compose,
    parallel_compose_pairs,
    run,
    sub_automaton,
    subset_construction,
    unobservable_reach,
    validate,
)
from .dot import export_dot
from .errors import (
    DescatError,
    InputError,
    ParseError,
    PreconditionError,
    UnsupportedSupervisorError,
)
from .estimation import (
    CAObserver,
    DiamondAutomaton,
    build_ca_observer,
    build_g_diamond,
    erase_unobservable,
    lift_estimate,
    replace_transition,
    state_estimate,
)
from .modelfile import ModelDocument, load_model, parse_model, serialize_model
from .simulation import (
    AttackerStrategy,
    CampaignReport,
    Trace,
    TraceStep,
    run_campaign,
    simulate,
)
from .synthesis import (
    Supervisor,
    compare_permissiveness,
    disabled_set,
    supervisor_union,
    synthesize_ca_supervisor,
    synthesize_obs_based,
)
from .verification import (
    Counterexample,
    LargeLanguageAutomaton,
    Verdict,
    check_ca_controllability,
    check_ca_observability_bounded,
    large_language_automaton,
    verify_large_language_equals,
)

__version__ = "0.1.0"
