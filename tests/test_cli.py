"""Command-line interface: outputs, exit codes and file handling."""

import json
from pathlib import Path

from descat.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"

CYCLE = str(MODELS / "cycle.des")
CYCLE_BETA = str(MODELS / "cycle_beta_only.des")
CYCLE_OBS = str(MODELS / "cycle_obs.des")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_corpus_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", CYCLE, "--obs", "alpha lambda mu")
        assert code == 0
        assert out.strip() == "{1,3}"

    def test_json_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", CYCLE, "--obs", "alpha", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"observation": ["alpha"], "estimate": ["2", "3"], "target": "plant"}

    def test_observation_based_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", CYCLE_OBS, "--obs", "alpha", "--target", "spec")
        assert code == 0
        assert out.strip() == "{2,3}"


class TestChecks:
    def test_controllability_fails_on_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "check-controllability", CYCLE)
        assert code == 1
        assert "fails" in out
        assert "alpha" in out

    def test_controllability_holds_on_beta_only(self, capsys):
        code, out, _ = run_cli(capsys, "check-controllability", CYCLE_BETA)
        assert code == 0
        assert "holds" in out

    def test_controllability_override_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "check-controllability", CYCLE_BETA, "--actuator-attack", "alpha,beta"
        )
        assert code == 1

    def test_observability_depth_flag(self, capsys):
        code, out, _ = run_cli(capsys, "check-observability", CYCLE_BETA, "--depth", "9")
        assert code == 0
        assert "holds-to-depth" in out
        assert "9" in out

    def test_observability_without_a_depth_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "check-observability", CYCLE_BETA)
        assert (code, out) == (0, "CA-observability: holds\n")

    def test_verify_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", CYCLE_BETA)
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", CYCLE)
        assert code == 1

    def test_verdict_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "check-controllability", CYCLE, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fails"
        assert payload["counterexample"] == {
            "string": ["alpha"],
            "event": "alpha",
            "witness": "reaches unsafe state '4'",
        }
        code, out, _ = run_cli(capsys, "verify", CYCLE_BETA, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "holds"
        assert payload["counterexample"] is None


class TestSynthesize:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", CYCLE_BETA)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# observer-state")
        assert "{2,3,tr0/A,tr1/D}, {2,3}, {beta,lambda,mu}" in lines
        assert any(line.startswith("default, -, ") for line in lines)

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", CYCLE_BETA, "--json")
        payload = json.loads(out)
        assert sorted(payload) == ["default_control", "states"]
        rows = {row["state"]: row for row in payload["states"]}
        assert rows["{2,3,tr0/A,tr1/D}"]["control"] == ["beta", "lambda", "mu"]


class TestObserver:
    def test_table_and_dot_file(self, capsys, tmp_path):
        dot_path = tmp_path / "obs.dot"
        code, out, _ = run_cli(capsys, "observer", CYCLE, "--dot", str(dot_path))
        assert code == 0
        assert "{1,3,tr0/B,tr1/D,tr1/E}" in out
        text = dot_path.read_text()
        assert text.startswith('digraph "observer"')


class TestSimulate:
    def test_safe_campaign_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", CYCLE_BETA, "--trials", "50", "--max-steps", "15", "--seed", "3"
        )
        assert code == 0
        assert "violations: 0" in out

    def test_exhaustive_attack_found_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            CYCLE_BETA,
            "--attacker",
            "exhaustive",
            "--max-steps",
            "4",
            "--actuator-attack",
            "alpha,beta",
        )
        assert code == 1
        assert "violating trace" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", CYCLE_BETA, "--trials", "5", "--max-steps", "5", "--json"
        )
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["trials"] == 5

    def test_exhaustive_at_the_default_bound(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", CYCLE_BETA, "--attacker", "exhaustive")
        assert code == 0
        assert "max-steps=50" in out and "violations: 0" in out

    def test_campaign_validates_the_policy_once(self, capsys, monkeypatch):
        """Only the campaign checks the policy beyond what synthesis checks; a converted strategy needs no check."""
        import descat.attacks

        validate = descat.attacks.validate_policy
        calls = []
        monkeypatch.setattr(descat.attacks, "validate_policy", lambda g, p: calls.append(1) or validate(g, p))

        def validations(*argv):
            calls.clear()
            run_cli(capsys, *argv)
            return len(calls)

        for model, extra in ((CYCLE_BETA, 1), (CYCLE_OBS, 0)):
            synthesis = validations("synthesize", model)
            assert validations("simulate", model, "--trials", "2", "--max-steps", "3") == synthesis + extra

    def test_checks_set_the_attack_up_once(self, capsys, monkeypatch):
        """Beyond loading and synthesis, each check validates a policy once and builds one observer.

        A strategy's converted policy is valid by construction, so neither
        the observability check nor verify validates it again.
        """
        import descat

        # ``_observer`` completes every CA-observer, validated or not; the observability check instead
        # steps one on demand, fetched by ``_observer_walk``.  ``_observer`` reads that walk too, so the
        # walk is counted where the check fetches it only.
        calls = {"validate_policy": 0, "_observer": 0}
        everywhere = (descat.attacks, descat.estimation, descat.modelfile, descat.verification)
        counters = (
            ("validate_policy", descat.attacks, "validate_policy", everywhere),
            ("_observer", descat.estimation, "_observer", everywhere),
            ("_observer_walk", descat.verification, "_observer", (descat.verification,)),
        )
        for name, home, counter, modules in counters:
            original = getattr(home, name)

            def counted(*args, counter=counter, original=original):
                calls[counter] += 1
                return original(*args)

            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)

        def counts(*argv):
            for name in calls:
                calls[name] = 0
            run_cli(capsys, *argv)
            return calls["validate_policy"], calls["_observer"]

        for model, check in ((CYCLE_BETA, 1), (CYCLE_OBS, 0)):
            loading, _ = counts("check-controllability", model)
            synthesis, _ = counts("synthesize", model)
            for depth in ((), ("--depth", "9")):
                assert counts("check-observability", model, *depth) == (loading + check, 1)
            assert counts("verify", model) == (synthesis + check, 1)
        assert counts("check-observability", CYCLE_BETA) == (2, 1)
        assert counts("verify", CYCLE_BETA) == (3, 1)


class TestConvertAndDot:
    def test_convert_obs_round_trips_as_model(self, capsys, tmp_path):
        out_path = tmp_path / "converted.des"
        code, _, _ = run_cli(capsys, "convert-obs", CYCLE_OBS, "-o", str(out_path))
        assert code == 0
        from descat import load_model

        doc = load_model(str(out_path))
        assert ("(2,z2)", "lambda", "(3,z3)") in doc.policy().entries
        code, out, _ = run_cli(capsys, "verify", str(out_path))
        assert code == 0

    def test_convert_requires_observation_sections(self, capsys):
        code, _, err = run_cli(capsys, "convert-obs", CYCLE)
        assert code == 2
        assert "observation-based" in err

    def test_export_dot_variants(self, capsys):
        for what in ("plant", "spec", "observer", "diamond"):
            code, out, _ = run_cli(capsys, "export-dot", CYCLE, "--what", what)
            assert code == 0
            assert out.startswith(f'digraph "{what}"')
        code, out, _ = run_cli(capsys, "export-dot", CYCLE_OBS, "--what", "sa")
        assert code == 0


    def test_export_dot_diamond_needs_no_spec(self, capsys, tmp_path):
        text = Path(CYCLE_OBS).read_text()
        no_spec = tmp_path / "nospec.des"
        no_spec.write_text(text.replace("spec:\n  safe-states 1 2 3\n", ""))
        assert "spec:" not in no_spec.read_text()
        _, with_spec, _ = run_cli(capsys, "export-dot", CYCLE_OBS, "--what", "diamond")
        code, out, err = run_cli(capsys, "export-dot", str(no_spec), "--what", "diamond")
        assert (code, err) == (0, "")
        assert out == with_spec

    def test_export_dot_diamond_validates_the_policy_once(self, capsys, monkeypatch):
        """Loading works out the policy's problems; the set-up, build_g_diamond and the observer read the memo.

        The observer build validates the policy's restriction to the plant, which drops nothing and so is the
        policy itself.
        """
        import descat

        calls = []
        original = descat.attacks._policy_problems
        monkeypatch.setattr(descat.attacks, "_policy_problems", lambda *args: calls.append(1) or original(*args))

        def validations(*argv):
            calls.clear()
            assert run_cli(capsys, "export-dot", *argv)[0] == 0
            return len(calls)

        assert validations(CYCLE_BETA, "--what", "diamond") == 1
        assert validations(CYCLE_BETA, "--what", "observer") == 1
        assert validations(CYCLE_OBS, "--what", "diamond") == 1

class TestErrors:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "no/such/file.des", "--obs", "alpha")
        assert code == 2
        assert err

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.des"
        bad.write_text("widgets:\n  x\n")
        code, _, err = run_cli(capsys, "estimate", str(bad), "--obs", "alpha")
        assert code == 2
        assert "unknown section" in err

    def test_spec_required_commands_report_cleanly(self, capsys, tmp_path):
        no_spec = tmp_path / "nospec.des"
        no_spec.write_text(
            "alphabet:\n  a controllable observable\n\nplant:\n  initial p\n  transition p a q\n"
        )
        code, _, err = run_cli(capsys, "verify", str(no_spec))
        assert code == 2
        assert "spec" in err

    def test_unknown_actuator_attack_event_is_usage_error(self, capsys):
        for command in ("verify", "check-controllability", "simulate"):
            code, out, err = run_cli(capsys, command, CYCLE, "--actuator-attack", "zeta")
            assert (code, out, err) == (2, "", "error: unknown event 'zeta'\n"), command

    def test_an_empty_actuator_attack_means_no_attackable_actuators(self, capsys):
        for command in ("verify", "check-controllability", "simulate"):
            none = run_cli(capsys, command, CYCLE, "--actuator-attack", "")
            assert none == run_cli(capsys, command, CYCLE, "--actuator-attack", ","), command
            assert none[0] == 0, command
            assert run_cli(capsys, command, CYCLE)[0] == 1, command

    def test_unreadable_model_or_unwritable_output_is_usage_error(self, capsys, tmp_path):
        binary = tmp_path / "binary.des"
        binary.write_bytes(b"alphabet:\n  \xff\xfe a\n")
        for argv in (
            ("verify", str(MODELS)),
            ("verify", str(binary)),
            ("export-dot", CYCLE, "-o", str(tmp_path)),
            ("convert-obs", CYCLE_OBS, "-o", str(tmp_path)),
            ("observer", CYCLE, "--dot", str(tmp_path)),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error: ") and "Traceback" not in err, argv
            if argv[1] == str(binary):
                assert str(binary) in err
