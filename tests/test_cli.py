import json

import pytest

from loopbundle import cli, core
from loopbundle.report import DEFAULT_TOLERANCES, MIN_STEPS, RunConfig


def run(argv):
    return cli.main(argv)


def _report(tmp_path, argv):
    path = tmp_path / "report.json"
    assert run(argv + ["--report", str(path)]) == 0
    data = json.loads(path.read_text())
    data.pop("wall_time")
    return data


def test_verify_axioms_passes(capsys):
    code = run(["verify", "--loop", "qc", "--suite", "axioms",
                "--samples", "50", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_verify_all_suites_small(capsys):
    code = run(["verify", "--loop", "rz", "--suite", "all",
                "--samples", "20", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_unknown_suite_is_usage_error(capsys):
    code = run(["verify", "--loop", "qc", "--suite", "nope", "--samples", "10"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_loop_is_usage_error(capsys):
    code = run(["verify", "--loop", "octonion", "--suite", "axioms"])
    assert code == 2


def test_bad_samples_is_usage_error(capsys):
    code = run(["verify", "--loop", "qc", "--suite", "axioms",
                "--samples", "0"])
    assert code == 2


def test_unreachable_tolerance_fails(capsys):
    code = run(["verify", "--loop", "qc", "--suite", "axioms",
                "--samples", "20", "--tol.axioms=1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_tolerance_flag_space_separated(capsys):
    code = run(["verify", "--loop", "qc", "--suite", "axioms",
                "--samples", "20", "--tol.axioms", "1e-3"])
    assert code == 0


def test_missing_tolerance_value(capsys):
    code = run(["verify", "--loop", "qc", "--suite", "axioms",
                "--tol.axioms"])
    assert code == 2


def test_report_file_written(tmp_path, capsys):
    for argv, suite in (
            (["verify", "--loop", "qc", "--suite", "jacobi", "--samples", "10", "--seed", "7"],
             "jacobi[qc]"),
            (["gauge-check", "--samples", "5"], "gauge[qc]"),
            (["bundle-check", "--atlas", "qs2-over-s2:n=3"], "bundle[qs2-over-s2:n=3]")):
        data = _report(tmp_path, argv)
        assert data["suite"] == suite and data["cases"]
        assert capsys.readouterr().out.count("PASS ") == len(data["cases"]) + 1


def test_unwritable_report_is_one_error_line(tmp_path, capsys):
    # The suite runs, then writing its report fails: exit 2 with one
    # error line naming the path, nothing on stdout and no exception.
    path = tmp_path / "missing" / "r.json"
    code = run(["verify", "--loop", "qc", "--suite", "jacobi", "--samples", "2",
                "--report", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_reports_are_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["verify", "--loop", "qh2", "--suite", "tangent",
            "--samples", "20", "--seed", "11"]
    assert run(base + ["--report", str(p1)]) == 0
    assert run(base + ["--report", str(p2)]) == 0
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    d1.pop("wall_time", None)
    d2.pop("wall_time", None)
    assert d1 == d2


QC_ALL_CASES = [
    "identity", "division_round_trip", "chart_closure",
    "structure_antisymmetry", "structure_closed_form",
    "canonical_form_left_law", "canonical_form_right_law",
    "modified_jacobi",
    "product_reconstruction", "maurer_cartan",
    "batalin_modified_associativity", "batalin_right_unit", "batalin_left_unit",
    "batalin_invertibility",
    "cocycle[s3-over-s1]", "transition_right_law[s3-over-s1]",
    "chart_round_trip[s3-over-s1]",
    "cocycle[qs2-over-s2:n=2]", "transition_right_law[qs2-over-s2:n=2]",
    "chart_round_trip[qs2-over-s2:n=2]",
    "s3_norm_preservation", "winding_closed_form",
    "commutator", "omega_annihilates_d", "gauge_two_route",
    "structure_eq_horizontal", "structure_eq_vertical", "structure_eq_mixed",
    "bianchi", "abelian_maxwell", "glue_vertical_reproduction",
]


def test_all_suites_report_each_case_once_in_order(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["verify", "--loop", "qc", "--suite", "all", "--samples", "5",
                "--report", str(path)]) == 0
    cases = json.loads(path.read_text())["cases"]
    assert [c["name"] for c in cases] == QC_ALL_CASES
    tol = {c["name"]: float(c["tolerance"]) for c in cases}
    assert tol["identity"] == 1e-11 and tol["chart_closure"] == 0.0
    assert tol["batalin_invertibility"] == 1e-10


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("loop = qc\nsamples = 15\nseed = 13\ntol.jacobi = 1e-4\n")
    code = run(["verify", "--suite", "jacobi", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tolerance=1.0e-04" in out


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("loop = qhr:K=1\nsamples = 500\n")
    code = run(["verify", "--suite", "axioms", "--config", str(cfg),
                "--loop", "qc", "--samples", "20", "--seed", "3"])
    assert code == 0
    assert "samples=20" in capsys.readouterr().out


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    # the axioms residuals vary with the seed, so a report tells seeds apart
    argv = ["verify", "--loop", "qc", "--suite", "axioms", "--samples", "10"]
    monkeypatch.setenv("LOOPBUNDLE_SEED", "42")
    from_env = _report(tmp_path, argv)
    monkeypatch.delenv("LOOPBUNDLE_SEED")
    assert from_env == _report(tmp_path, argv + ["--seed", "42"])
    assert from_env != _report(tmp_path, argv + ["--seed", "43"])


@pytest.mark.parametrize("with_config", [False, True])
def test_seed_env_sets_the_seed(tmp_path, capsys, monkeypatch, with_config):
    argv = ["verify", "--loop", "qc", "--suite", "axioms", "--samples", "10"]
    if with_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 10\n")
        argv += ["--config", str(cfg)]
    reports = []
    for seed in ("1", "2"):
        monkeypatch.setenv("LOOPBUNDLE_SEED", seed)
        reports.append(_report(tmp_path, argv))
    assert reports[0] != reports[1]


def test_seed_resolves_env_then_file_then_flag(tmp_path, capsys, monkeypatch):
    argv = ["verify", "--loop", "qc", "--suite", "axioms", "--samples", "5"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\n")
    monkeypatch.setenv("LOOPBUNDLE_SEED", "5")
    from_file = _report(tmp_path, argv + ["--config", str(cfg)])
    from_flag = _report(tmp_path, argv + ["--config", str(cfg), "--seed", "3"])
    monkeypatch.delenv("LOOPBUNDLE_SEED")
    assert from_file == _report(tmp_path, argv + ["--seed", "7"])
    assert from_flag == _report(tmp_path, argv + ["--seed", "3"])
    assert from_file != from_flag


def test_config_keys_a_command_does_not_read_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("loop = octonion\nsamples = 0\nsteps = 8\nseed = 1\n")
    assert run(["bundle-check", "--config", str(cfg), "--samples", "20"]) == 0
    cfg.write_text("samples = 0\nseed = x\nreport = r.json\nsteps = 64\n")
    assert run(["reconstruct", "--loop", "qc", "--a", "0.2,0.1", "--b", "0.1,0.3",
                "--config", str(cfg)]) == 0
    cfg.write_text("loops = qc\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key: loops" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "file"])
def test_steps_below_minimum_rejected_before_any_suite(tmp_path, capsys, monkeypatch, source):
    def suite_ran(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(core, "check_loop_axioms", suite_ran)
    argv = ["verify", "--suite", "all"]
    if source == "flag":
        argv += ["--steps", "8"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 8\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 2
    assert "steps must be at least 16" in capsys.readouterr().err


def test_run_config_rejects_steps_below_minimum(monkeypatch):
    def suite_ran(*args, **kwargs):
        raise AssertionError("a suite ran")

    # built directly, not through resolve_config: no suite may start
    monkeypatch.setattr(core, "check_loop_axioms", suite_ran)
    with pytest.raises(ValueError, match="steps must be at least 16"):
        cli.run_suite(RunConfig(steps=8), "all")
    assert RunConfig(steps=MIN_STEPS).steps == 16


RECONSTRUCT = ["reconstruct", "--loop", "qc", "--a", "0.2,0.1", "--b", "0.1,0.3"]


@pytest.mark.parametrize("argv", [
    RECONSTRUCT + ["--samples", "5"],
    RECONSTRUCT + ["--seed", "3"],
    RECONSTRUCT + ["--report", "unused.json"],
    ["bundle-check", "--loop", "qc"],
    ["gauge-check", "--steps", "64"],
    ["verify", "--sam", "5"],
], ids=["reconstruct-samples", "reconstruct-seed", "reconstruct-report", "bundle-check-loop",
        "gauge-check-steps", "verify-abbreviation"])
def test_option_the_command_does_not_read_is_usage_error(capsys, argv):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_tolerance(capsys, command):
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"--tol.{name}" in out for name in DEFAULT_TOLERANCES)


def test_reconstruct_command(capsys):
    code = run(["reconstruct", "--loop", "qc", "--a", "0.2,0.1",
                "--b=-0.1,0.3", "--steps", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "reconstructed:" in out
    assert "difference:" in out


def test_bundle_check_command(capsys):
    for atlas in ("s3-over-s1", "qs2-over-s2:n=2"):
        code = run(["bundle-check", "--atlas", atlas, "--samples", "30",
                    "--seed", "17"])
        assert code == 0
        assert "cocycle" in capsys.readouterr().out


def test_bundle_suite_seed_2_passes(capsys):
    # Winding iterates of this seed pass beyond the fiber chart's 1e3 cut.
    code = run(["verify", "--suite", "bundle", "--samples", "20000",
                "--seed", "2"])
    assert code == 0
    assert "PASS winding_closed_form" in capsys.readouterr().out


def test_bad_tolerance_is_usage_error(capsys):
    for tol in ("-1", "nan"):
        code = run(["verify", "--loop", "qc", "--suite", "axioms",
                    "--samples", "5", f"--tol.axioms={tol}"])
        assert code == 2
        assert "tolerances must be positive" in capsys.readouterr().err


def test_misspelt_tolerance_name_is_usage_error(capsys):
    # --tol.max is not expanded to --tol.maxwell, and the space form is read
    # as one unknown flag and its value.
    for flags, name in ((["--tol.jacobbi=1e-30"], "jacobbi"), (["--tol.=1"], ""),
                        (["--tol.max=1"], "max"), (["--tol.jacobbi", "1e-30"], "jacobbi")):
        code = run(["verify", "--loop", "qc", "--suite", "jacobi", "--samples", "3"] + flags)
        assert code == 2
        assert f"unknown tolerance name: {name!r}" in capsys.readouterr().err


def test_misspelt_tolerance_name_in_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("loop = qc\nsamples = 3\ntol.jacobbi = 1e-30\n")
    assert run(["verify", "--suite", "jacobi", "--config", str(cfg)]) == 2
    assert "unknown tolerance name: 'jacobbi'" in capsys.readouterr().err


@pytest.mark.parametrize("a,b", [("0.1", "0.3,-0.1"), ("0.1,0.2,0.3", "0.3,-0.1")])
def test_reconstruct_point_of_wrong_dimension_is_usage_error(capsys, a, b):
    assert run(["reconstruct", "--loop", "qc", "--a", a, "--b", b]) == 2
    captured = capsys.readouterr()
    assert "is not of dimension 2" in captured.err and not captured.out


def test_bundle_check_unknown_atlas(capsys):
    assert run(["bundle-check", "--atlas", "torus"]) == 2


def test_gauge_check_command(capsys):
    code = run(["gauge-check", "--loop", "qc", "--samples", "10",
                "--seed", "19"])
    assert code == 0
    out = capsys.readouterr().out
    assert "structure_eq_mixed" in out
    assert "bianchi" in out


GAUGE_CASES = QC_ALL_CASES[QC_ALL_CASES.index("commutator"):]


def test_gauge_check_honours_samples(capsys):
    # Every case takes min(--samples, its cap): 2 below each cap, and the
    # caps (100, 5 and 3 for Bianchi) at the default.
    for samples, counts in (("2", [2] * 9), ("100", [100, 100] + [5] * 4 + [3, 5, 5])):
        assert run(["gauge-check", "--loop", "qc", "--samples", samples]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert [line.split()[1].rstrip(":") for line in lines] == GAUGE_CASES
        assert [line.rsplit("samples=", 1)[1] for line in lines] == [str(c) for c in counts]


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
