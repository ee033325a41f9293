"""Model document parsing, validation and canonical serialization."""

from pathlib import Path

import pytest

from descat import (
    InputError,
    ParseError,
    load_model,
    parse_model,
    serialize_model,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

MINIMAL = """
alphabet:
  a controllable observable

plant:
  initial p
  transition p a q
"""


class TestParse:
    def test_corpus_files_parse(self):
        for name in ("cycle.des", "cycle_beta_only.des", "cycle_obs.des"):
            doc = load_model(str(MODELS / name))
            assert doc.plant.initial == "1"
            assert doc.safe_states == {"1", "2", "3"}

    def test_corpus_attack_sections(self):
        doc = load_model(str(MODELS / "cycle.des"))
        policy = doc.policy()
        assert set(policy.entries) == {("2", "lambda", "3"), ("3", "mu", "1")}
        f1 = policy.entries[("2", "lambda", "3")]
        assert f1.initial == "A"
        assert f1.marked == {"A", "B", "C"}

    def test_observation_sections(self):
        doc = load_model(str(MODELS / "cycle_obs.des"))
        strategy = doc.strategy()
        assert strategy.sa.initial == "z1"
        assert set(strategy.omega) == {("z2", "lambda"), ("z3", "mu")}

    def test_minimal_document(self):
        doc = parse_model(MINIMAL)
        assert doc.plant.states == {"p", "q"}
        assert doc.safe_states is None

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_model("# leading comment\n" + MINIMAL.replace("plant:", "plant:  # inline"))
        assert doc.plant.states == {"p", "q"}

    def test_explicit_spec_subautomaton(self):
        text = MINIMAL + "\nspec:\n  initial p\n  states p q\n  transition p a q\n"
        doc = parse_model(text)
        assert doc.safe_states == {"p", "q"}

    def test_explicit_spec_must_be_induced(self):
        text = (
            "alphabet:\n  a controllable observable\n\n"
            "plant:\n  initial p\n  transition p a q\n  transition q a p\n\n"
            "spec:\n  initial p\n  states p q\n  transition p a q\n"
        )
        with pytest.raises(ParseError):
            parse_model(text)


class TestParseErrors:
    def test_empty_document(self):
        with pytest.raises(ParseError) as err:
            parse_model("")
        assert "missing alphabet" in str(err.value)

    def test_undeclared_event_in_transition(self):
        text = "alphabet:\n  a observable\n\nplant:\n  initial p\n  transition p ghost q\n"
        with pytest.raises(InputError) as err:
            parse_model(text)
        assert "ghost" in str(err.value)

    def test_positions_reported(self):
        text = "alphabet:\n  a observable wrongflag\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == 2
        assert err.value.column == 16

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_model("widgets:\n  x\n")
        assert "unknown section" in str(err.value)

    def test_attackable_event_without_attack_section(self):
        text = (
            "alphabet:\n  a controllable observable sensor-attackable\n\n"
            "plant:\n  initial p\n  transition p a q\n"
        )
        with pytest.raises(InputError) as err:
            parse_model(text)
        assert "no attack sections" in str(err.value)

    def test_both_attack_kinds_rejected(self):
        base = load_model(str(MODELS / "cycle_obs.des"))
        text = serialize_model(base)
        text += (
            "\nattack tr 2 lambda 3:\n  initial A\n  marked A\n"
        )
        with pytest.raises(InputError) as err:
            parse_model(text)
        assert "both" in str(err.value)

    def test_nondeterministic_plant_rejected(self):
        text = (
            "alphabet:\n  a observable\n\n"
            "plant:\n  initial p\n  transition p a q\n  transition p a r\n"
        )
        with pytest.raises(InputError) as err:
            parse_model(text)
        assert "deterministic" in str(err.value)

    def test_state_name_that_aliases_a_state_set_rejected(self):
        # The observer would merge the subsets {"a,b"} and {a,b} into one
        # state named {a,b}, and the synthesized supervisor would enable z
        # after y although y u z leaves the safe states.
        text = (
            "alphabet:\n"
            "  x controllable observable\n"
            "  y controllable observable\n"
            "  u\n"
            "  z controllable observable\n"
            "plant:\n"
            "  initial 0\n"
            "  transition 0 x a,b\n"
            "  transition 0 y a\n"
            "  transition a u b\n"
            "  transition b z bad\n"
            "spec:\n"
            "  safe-states 0 a,b a b\n"
        )
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.line, err.value.column) == (8, 18)
        assert "a,b" in str(err.value)

    @pytest.mark.parametrize("name", ["{p}", "p|q", "p(", "(p,q", "(p,q,r)", "((p,q),r)"])
    def test_reserved_characters_in_state_names_rejected(self, name):
        with pytest.raises(ParseError):
            parse_model(MINIMAL.replace(" p", f" {name}"))

    def test_product_pair_state_names_accepted(self):
        doc = parse_model(MINIMAL.replace(" p", " (p,z)"))
        assert doc.plant.initial == "(p,z)"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["cycle.des", "cycle_beta_only.des", "cycle_obs.des"])
    def test_parse_serialize_identity(self, name):
        doc = load_model(str(MODELS / name))
        text = serialize_model(doc)
        again = parse_model(text)
        assert again == doc
        assert serialize_model(again) == text

    def test_per_event_sections_round_trip(self):
        text = (
            "alphabet:\n  a controllable observable sensor-attackable\n\n"
            "plant:\n  initial p\n  transition p a q\n  transition q a p\n\n"
            "attack event a:\n  initial i\n  marked f\n  transition i a f\n"
        )
        doc = parse_model(text)
        assert set(doc.policy().entries) == {("p", "a", "q"), ("q", "a", "p")}
        assert parse_model(serialize_model(doc)) == doc


class TestAttackObjects:
    """A document builds its policy and its strategy once, so their memos carry from loading into a command."""

    @pytest.mark.parametrize("name", ["cycle.des", "cycle_beta_only.des", "cycle_obs.des"])
    def test_one_attack_object_per_document(self, name):
        doc = load_model(str(MODELS / name))
        if doc.has_observation_strategy:
            assert doc.strategy() is doc.strategy()
            assert doc.attack is doc.strategy()
            with pytest.raises(InputError, match="observation-based attack, not a transition-based one"):
                doc.policy()
        else:
            assert doc.policy() is doc.policy()
            assert doc.attack is doc.policy()
            with pytest.raises(InputError, match="no observation-based attack sections"):
                doc.strategy()

    def test_a_document_without_attacks_has_the_empty_policy(self):
        doc = parse_model(MINIMAL)
        assert doc.attack is doc.policy()
        assert dict(doc.attack.entries) == {}

    @pytest.mark.parametrize("name", ["cycle.des", "cycle_obs.des"])
    def test_attack_sections_reject_assignment(self, name):
        doc = load_model(str(MODELS / name))
        for sections in (doc.policy_events, doc.policy_transitions, doc.omega):
            with pytest.raises(TypeError):
                sections[("1", "alpha", "2")] = doc.plant

    def test_the_given_sections_are_copied(self):
        doc = load_model(str(MODELS / "cycle.des"))
        given = dict(doc.policy_transitions)
        copy = type(doc)(alphabet=doc.alphabet, plant=doc.plant, policy_transitions=given)
        given.clear()
        assert dict(copy.policy_transitions) == dict(doc.policy_transitions)

    @pytest.mark.parametrize(
        "name, counted", [("cycle_obs.des", "_check_and_convert"), ("cycle_beta_only.des", "_policy_problems")]
    )
    @pytest.mark.parametrize("command", [["verify"], ["simulate", "--trials", "3", "--max-steps", "6"]])
    def test_a_command_checks_the_attack_once_per_automaton(self, monkeypatch, capsys, name, counted, command):
        """Loading, synthesis and the command's last step check the same plant, so one check serves all three.

        Synthesis converts a strategy on the spec too, which checks it there.
        """
        import descat.attacks
        from descat.cli import main

        calls = []
        original = getattr(descat.attacks, counted)
        monkeypatch.setattr(descat.attacks, counted, lambda *args: calls.append(args[0]) or original(*args))
        assert main([command[0], str(MODELS / name), *command[1:]]) == 0
        capsys.readouterr()
        assert len(calls) == (2 if counted == "_check_and_convert" else 1)
