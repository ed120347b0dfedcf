import gc
import json
import shutil
import subprocess

import pytest

from steadydim import cli
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import SamplerConfig, analyze

from conftest import CALCIUM_B, CALCIUM_GAMMA, fixture_path

CALCIUM = str(fixture_path("calcium.crn"))
EXAMPLE42 = str(fixture_path("example42.crn"))
EXAMPLE46 = str(fixture_path("example46.crn"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_calcium_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", CALCIUM, "--seed", "7")
    assert code == 0
    assert "conclusion_f: generic dimension n-s = 1" in out
    assert "conclusion_F: generically finite" in out
    assert "cone: positive kernel vector exists" in out


def test_analyze_rank_deficient_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", EXAMPLE42, "--seed", "7")
    assert code == 0
    assert "conclusion_f: empty or higher-dimensional for almost all rate constants" in out
    assert "certificate" in out


def test_analyze_missing_file(capsys):
    code, out, err = run_cli(capsys, "analyze", "missing.crn")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("X -> X ; k1\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "self-loop" in err


def test_analyze_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    report = cli.report_from_dict(payload)
    direct = analyze(
        parse_network(fixture_path("calcium.crn").read_text()), SamplerConfig(seed=11)
    )
    assert report == direct


def test_analyze_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "5")
    _, out2, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "6")
    assert json.loads(out3)["conclusions"] == json.loads(out1)["conclusions"]


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STEADYDIM_SEED", "5")
    _, out_env, _ = run_cli(capsys, "analyze", CALCIUM, "--json")
    _, out_flag, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "5")
    assert out_env == out_flag
    monkeypatch.setenv("STEADYDIM_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "analyze", CALCIUM)
    assert code == 1
    assert "STEADYDIM_SEED" in err


def test_matrices_calcium(capsys):
    code, out, _ = run_cli(capsys, "matrices", CALCIUM, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == CALCIUM_GAMMA
    assert payload["b"] == CALCIUM_B
    assert payload["w_mat"] == [[0, 0, 1, 1]]
    assert payload["network"]["s"] == 3


def test_matrices_text_single_reaction(tmp_path, capsys):
    f = tmp_path / "single.crn"
    f.write_text("X -> Y ; k1\n")
    code, out, _ = run_cli(capsys, "matrices", str(f))
    assert code == 0
    assert "gamma (2x1):" in out
    assert "\n  -1\n  1\n" in out


def test_matrices_row_basis_line(capsys):
    code, out, _ = run_cli(capsys, "matrices", EXAMPLE46, "--json")
    payload = json.loads(out)
    assert payload["n_mat"] == [[1, -2, 1]]


def test_check_point_degenerate(capsys):
    code, out, _ = run_cli(capsys, "check-point", EXAMPLE46, "--kappa", "1,1,1", "--x", "1,1")
    assert code == 0
    assert "steady state: yes; degenerate: yes" in out


def test_check_point_nondegenerate_calcium(capsys):
    code, out, _ = run_cli(
        capsys, "check-point", CALCIUM, "--kappa", "1,1,1,2,1,1", "--x", "1,1,1,1"
    )
    assert code == 0
    assert "degenerate: no" in out


def test_check_point_json(capsys):
    code, out, _ = run_cli(
        capsys, "check-point", EXAMPLE46, "--kappa", "1,1,1", "--x", "1,1", "--json"
    )
    payload = json.loads(out)
    assert payload["degenerate"] is True
    assert payload["residual_zero"] is True
    assert payload["stacked_rank"] == 1
    assert payload["jacobian"] == [["0", "0"]]
    assert payload["kappa"] == ["1", "1", "1"]


def test_check_point_rejects_zero_entry(capsys):
    code, _, err = run_cli(capsys, "check-point", EXAMPLE46, "--kappa", "1,0,1", "--x", "1,1")
    assert code == 1
    assert "strictly positive" in err


def test_check_point_rejects_bad_rational(capsys):
    code, _, err = run_cli(capsys, "check-point", EXAMPLE46, "--kappa", "1,x,1", "--x", "1,1")
    assert code == 1


def test_check_point_rejects_wrong_length(capsys):
    code, _, err = run_cli(capsys, "check-point", EXAMPLE46, "--kappa", "1,1", "--x", "1,1")
    assert code == 1
    assert "needs 3 entries" in err


def test_check_point_fractional_input(capsys):
    code, out, _ = run_cli(
        capsys, "check-point", EXAMPLE46, "--kappa", "1,5/2,6", "--x", "2,7"
    )
    assert code == 0
    assert "steady state: yes; degenerate: no" in out


def test_batch_mode(tmp_path, capsys):
    (tmp_path / "a_calcium.crn").write_text(fixture_path("calcium.crn").read_text())
    (tmp_path / "b_bad.crn").write_text("X -> X ; k1\n")
    (tmp_path / "c_quadratic.crn").write_text(fixture_path("example46.crn").read_text())
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path), "--seed", "3")
    assert code == 1  # one record failed to parse
    lines = out.strip().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines]
    assert [r["path"].rsplit("/", 1)[-1] for r in records] == [
        "a_calcium.crn",
        "b_bad.crn",
        "c_quadratic.crn",
    ]
    assert "error" in records[1]
    assert records[0]["conclusions"]["compatibility_classes"] == "generically_finite"


def test_batch_mode_isolates_internal_errors(tmp_path, capsys, monkeypatch):
    (tmp_path / "a_boom.crn").write_text(fixture_path("calcium.crn").read_text())
    (tmp_path / "b_quadratic.crn").write_text(fixture_path("example46.crn").read_text())
    real_analyze = cli.analyze

    def analyze_or_fail(net, cfg):
        if net.n == 4:  # calcium
            raise RuntimeError("synthetic failure")
        return real_analyze(net, cfg)

    monkeypatch.setattr(cli, "analyze", analyze_or_fail)
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path), "--seed", "3")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 2
    assert set(records[0]) == {"path", "error"}
    assert "synthetic failure" in records[0]["error"]
    assert records[1]["conclusions"]["compatibility_classes"] == "generically_finite"


def test_batch_mode_location_independent(tmp_path, capsys):
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        (d / "net.crn").write_text(fixture_path("example46.crn").read_text())
    _, out1, _ = run_cli(capsys, "analyze", str(tmp_path / "one"), "--seed", "9")
    _, out2, _ = run_cli(capsys, "analyze", str(tmp_path / "two"), "--seed", "9")
    strip = lambda s: [json.loads(l) for l in s.strip().splitlines()]
    r1, r2 = strip(out1)[0], strip(out2)[0]
    del r1["path"], r2["path"]
    assert r1 == r2


def test_text_and_json_agree_on_verdicts_and_witnesses(capsys):
    _, text, _ = run_cli(capsys, "analyze", CALCIUM, "--seed", "21")
    _, raw, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "21")
    payload = json.loads(raw)
    assert "conclusion_f: generic dimension n-s = 1" in text
    assert payload["conclusions"]["steady_state_variety"] == "generic_dimension_n_minus_s"
    for key, name in (("f_test", "f_test"), ("F_test", "F_test")):
        assert payload[key]["status"] == "nondegenerate_exists"
        assert f"{name}: nondegenerate solution exists" in text
        witness_line = f"{name} witness u: " + " ".join(payload[key]["witness_u"])
        assert witness_line in text
    assert "cone witness: " + " ".join(payload["cone"]["witness"]) in text


def test_usage_error_on_bad_retries(capsys):
    code, _, err = run_cli(capsys, "analyze", CALCIUM, "--retries", "0")
    assert code == 1
    assert "retries" in err


@pytest.mark.parametrize("option", [("--retries", "0"), ("--bound", "1")])
def test_batch_mode_bad_option_is_one_usage_error(tmp_path, capsys, option):
    (tmp_path / "a_calcium.crn").write_text(fixture_path("calcium.crn").read_text())
    (tmp_path / "b_quadratic.crn").write_text(fixture_path("example46.crn").read_text())
    code, out, err = run_cli(capsys, "analyze", str(tmp_path), *option)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "internal error" not in err


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    argvs = [
        ["analyze", CALCIUM, "--json", "--seed", "3"],
        ["analyze", EXAMPLE42],
        ["matrices", CALCIUM, "--json"],
        ["check-point", EXAMPLE46, "--kappa", "1,5/2,6", "--x", "2,7"],
    ]
    for argv in argvs:  # first calls may fill caches that live on
        cli.main(argv)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for argv in argvs:
                assert cli.main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable == 0


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "analyze", boom)
    code, _, err = run_cli(capsys, "analyze", CALCIUM)
    assert code == 2
    assert "internal error" in err


def test_console_script_installed():
    exe = shutil.which("steadydim")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "matrices", CALCIUM], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "gamma (4x6):" in proc.stdout
