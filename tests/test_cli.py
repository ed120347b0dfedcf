import gc
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steadydim import cli
from steadydim.netmodel import NetworkMatrices, parse_network
from steadydim.nondegen import ClassesConclusion, RankTestStatus, SamplerConfig, VarietyConclusion, analyze

from conftest import CALCIUM_B, CALCIUM_GAMMA, fixture_path, random_network

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


def _unreadable_inputs(tmp_path, monkeypatch):
    """(path, error text) for a non-UTF-8 file, a path below a file and an
    unreadable file: each is a user error."""
    (tmp_path / "latin1.crn").write_bytes("X\xe9 -> 0 ; k1\n".encode("latin-1"))
    (tmp_path / "locked.crn").write_text("X -> 0 ; k1\n")
    real_read_text = cli.Path.read_text

    def read_text(self, *args, **kwargs):
        if self.name == "locked.crn":
            raise PermissionError(13, "Permission denied", str(self))
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(cli.Path, "read_text", read_text)
    return [
        (tmp_path / "latin1.crn", "not UTF-8"),
        (tmp_path / "latin1.crn" / "x.crn", "Not a directory"),
        (tmp_path / "locked.crn", "Permission denied"),
    ]


def test_unreadable_input_is_a_user_error(tmp_path, capsys, monkeypatch):
    for path, reason in _unreadable_inputs(tmp_path, monkeypatch):
        for command in ("analyze", "matrices"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (1, ""), path
            assert err.startswith("error: ") and reason in err, err


def test_batch_mode_unreadable_file_is_a_plain_record(tmp_path, capsys, monkeypatch):
    _unreadable_inputs(tmp_path, monkeypatch)
    (tmp_path / "ok.crn").write_text(fixture_path("example46.crn").read_text())
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path), "--seed", "3")
    assert code == 1
    records = {r["path"].rsplit("/", 1)[-1]: r for r in map(json.loads, out.strip().splitlines())}
    assert sorted(records) == ["latin1.crn", "locked.crn", "ok.crn"]
    assert "not UTF-8" in records["latin1.crn"]["error"]
    assert "Permission denied" in records["locked.crn"]["error"]
    for name in ("latin1.crn", "locked.crn"):
        assert "internal error" not in records[name]["error"]
    assert records["ok.crn"]["conclusions"]["compatibility_classes"] == "generically_finite"


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("X -> X ; k1\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "self-loop" in err


def test_analyze_overlong_coefficient_is_a_parse_error(tmp_path, capsys):
    # a coefficient past the interpreter's int-string limit, where it has one
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bad = tmp_path / "long.crn"
    bad.write_text("X -> Y ; k1\nY -> " + "1" * (max(limit, 4300) + 1) + " X ; k2\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    if not limit:
        assert code == 0
        return
    assert code == 1
    assert err.startswith("error: line 2, column 6:") and "internal error" not in err
    # and in batch mode a plain error record
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
    assert code == 1
    assert json.loads(out)["error"].startswith("line 2, column 6:")


def test_analyze_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 3
    report = cli.report_from_dict(payload)
    direct = analyze(
        parse_network(fixture_path("calcium.crn").read_text()), SamplerConfig(seed=11)
    )
    assert report == direct


def _other(value, enum):
    return next(v.value for v in enum if v.value != value)


# each flips one field that follows from the cone and the verdicts
CONTRADICTIONS = [
    lambda d: d["conclusions"].update(
        steady_state_variety=_other(d["conclusions"]["steady_state_variety"], VarietyConclusion)
    ),
    lambda d: d["conclusions"].update(
        compatibility_classes=_other(d["conclusions"]["compatibility_classes"], ClassesConclusion)
    ),
    lambda d: d["f_test"].update(status=_other(d["f_test"]["status"], RankTestStatus)),
    lambda d: d["F_test"].update(status=_other(d["F_test"]["status"], RankTestStatus)),
    lambda d: d["cone"].update(exists=not d["cone"]["exists"]),
    lambda d: d["notes"].append("rank verdicts describe the complex-torus systems only"),
    lambda d: d["notes"].pop(),
]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2**32), st.integers(0, 99))
def test_report_round_trips_through_json(net_seed, seed):
    # about half of these networks are all_degenerate, with a bordering f
    # certificate and an implied_by_f one; the golden records add bordering F
    report = analyze(random_network(random.Random(net_seed)), SamplerConfig(seed=seed))
    written = json.dumps(cli.report_to_dict(report))
    assert cli.report_from_dict(json.loads(written)) == report
    # a report that contradicts its proofs is rejected
    for contradict in CONTRADICTIONS:
        bad = json.loads(written)
        if contradict is CONTRADICTIONS[-1] and not bad["notes"]:
            continue
        contradict(bad)
        with pytest.raises(ValueError):
            cli.report_from_dict(bad)


def test_report_from_dict_rejects_schema_2_and_malformed_certificates(capsys):
    _, out, _ = run_cli(capsys, "analyze", EXAMPLE42, "--json", "--seed", "7")
    payload = json.loads(out)
    assert payload["f_test"]["certificate"]["kind"] == "bordering"
    cli.report_from_dict(payload)
    with pytest.raises(ValueError, match="schema_version 2"):
        cli.report_from_dict({**payload, "schema_version": 2})
    tampers = [
        lambda cert: cert.update(kind="minors"),
        lambda cert: cert.update(kind=None),
        lambda cert: cert.update(kind=["bordering"]),
        lambda cert: cert.pop("kind"),
        lambda cert: cert.pop("sample_h"),
        lambda cert: cert.update(rank=1),
        lambda cert: cert.update(kind="implied_by_f"),
    ]
    for tamper in tampers:
        bad = json.loads(out)
        tamper(bad["f_test"]["certificate"])
        with pytest.raises(ValueError, match="malformed certificate"):
            cli.report_from_dict(bad)
    # a schema-2 certificate, its lines of text, under a schema-3 header
    bad = json.loads(out)
    bad["f_test"]["certificate"] = ["rank 1 < 3: minor rows=(0) cols=(0) is nonzero at the sample below"]
    with pytest.raises(ValueError, match="malformed certificate"):
        cli.report_from_dict(bad)


GOLDEN_RECORDS = {
    (record["input"], record["seed"]): json.loads(record["stdout"])
    for record in map(json.loads, (Path(__file__).parent / "data" / "golden_reports.jsonl").read_text().splitlines())
}
# example45 at seed 0: a witness in the f-test, a bordering certificate in the F-test
GOLDEN_RECORD = GOLDEN_RECORDS["fixtures/example45.crn", 0]
VERDICT_KEYS = ["status", "target_rank", "witness_u", "witness_w", "certificate", "samples_tried"]


@pytest.mark.parametrize(
    "path",
    [(key,) for key in GOLDEN_RECORD]
    + [("f_test", key) for key in VERDICT_KEYS]
    + [("F_test", key) for key in VERDICT_KEYS + ["witness_h"]],
    ids="/".join,
)
def test_report_from_dict_rejects_a_missing_key(path):
    bad = json.loads(json.dumps(GOLDEN_RECORD))
    parent = bad
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ValueError):
        cli.report_from_dict(bad)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda d: d.update(network=[]),
        lambda d: d.update(notes=3),
        lambda d: d["cone"].update(witness=1),
        lambda d: d.update(f_test="nondegenerate_exists"),
        lambda d: d["F_test"].update(witness_h=5),
        lambda d: d["f_test"].update(status=["nondegenerate_exists"]),
        lambda d: d["f_test"].update(samples_tried="x"),
        lambda d: d["f_test"].update(samples_tried=True),
        lambda d: d["network"].update(n="4"),
        lambda d: d["network"].update(species=None, reactions=None, n="4"),
        lambda d: d["network"].update(d=99),
        lambda d: d["cone"].update(exists="no"),
        lambda d: d["F_test"]["certificate"].update(sample_h=["1"] * 4),
    ],
    ids=[
        "network",
        "notes",
        "cone.witness",
        "f_test",
        "F_test.witness_h",
        "f_test.status",
        "samples_tried.str",
        "samples_tried.bool",
        "network.n",
        "network.n_without_reactions",
        "network.d",
        "cone.exists",
        "certificate.sample_h",
    ],
)
def test_report_from_dict_rejects_a_mistyped_value(tamper):
    bad = json.loads(json.dumps(GOLDEN_RECORD))
    tamper(bad)
    with pytest.raises(ValueError):
        cli.report_from_dict(bad)


def _shift_s(d, by):
    # s, d and the f-test's target moved together, consistent with each other but not with the reactions
    d["network"].update(s=d["network"]["s"] + by, d=d["network"]["d"] - by)
    d["f_test"]["target_rank"] += by


@pytest.mark.parametrize(
    "record, tamper",
    [
        ("example45", lambda d: d["f_test"].update(status="all_degenerate")),
        ("example45", lambda d: d["f_test"].update(witness_u=None, witness_w=None)),
        ("example45", lambda d: d["f_test"].update(witness_u=[f"{2 * int(x)}/2" for x in d["f_test"]["witness_u"]])),
        ("example45", lambda d: d["cone"].update(proof=None)),
        # w is G u, and implied_by_f follows an all-degenerate f-test with the network's d
        ("example45", lambda d: d["f_test"].update(witness_w=["7"] * len(d["f_test"]["witness_w"]))),
        ("example45", lambda d: d["F_test"].update(certificate={"kind": "implied_by_f", "d": 5})),
        ("example42", lambda d: d["F_test"]["certificate"].update(d=d["F_test"]["certificate"]["d"] + 4)),
        # s follows from the reactions (calcium has s = 3; at s = 1 the s = 0 note would tell)
        ("calcium", lambda d: _shift_s(d, 1)),
        ("calcium", lambda d: _shift_s(d, -1)),
        # only the reactions give the matrices
        ("example45", lambda d: d["network"].update(species=None, reactions=None)),
    ],
    ids=[
        "status_without_certificate",
        "neither_witness_nor_certificate",
        "non_canonical_rational",
        "extra_key",
        "witness_w_not_G_u",
        "implied_by_f_after_a_witness",
        "implied_by_f_with_another_d",
        "s_and_d_plus_1",
        "s_and_d_minus_1",
        "without_reactions",
    ],
)
def test_report_from_dict_rejects_what_report_to_dict_would_not_write(record, tamper):
    # at seed 0: example45's f_test has a witness and certificate null, example42's F_test is implied_by_f
    bad = json.loads(json.dumps(GOLDEN_RECORDS[f"fixtures/{record}.crn", 0]))
    tamper(bad)
    with pytest.raises(ValueError):
        cli.report_from_dict(bad)


def test_analyze_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "5")
    _, out2, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "analyze", CALCIUM, "--json", "--seed", "6")
    assert json.loads(out3)["conclusions"] == json.loads(out1)["conclusions"]


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


@pytest.mark.parametrize("names", [(), ("net.CRN",)], ids=["empty", "upper_case_suffix"])
def test_batch_mode_without_crn_files_is_a_user_error(tmp_path, capsys, names):
    for name in names:
        (tmp_path / name).write_text(fixture_path("calcium.crn").read_text())
    code, out, err = run_cli(capsys, "analyze", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: no *.crn files in {tmp_path}\n"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", CALCIUM, "--seed", "abc"], "argument --seed: invalid int value"),
        (["check-point", CALCIUM], "the following arguments are required: --kappa, --x"),
        (["analyze", CALCIUM, "--frob"], "unrecognized arguments: --frob"),
        # the sampler's retry count and bound are constants, not options
        (["analyze", CALCIUM, "--retries", "3"], "unrecognized arguments: --retries 3"),
        (["analyze", CALCIUM, "--bound", "9"], "unrecognized arguments: --bound 9"),
    ],
)
def test_command_line_errors_are_usage_errors(capsys, argv, message):
    # exit 1 like every other usage error, returned rather than raised
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: steadydim")
    assert f"error: {message}" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: steadydim analyze")


@pytest.mark.parametrize("option", [("--seed", "abc"), ("--retries", "3")])
def test_batch_mode_bad_option_is_one_usage_error(tmp_path, capsys, option):
    (tmp_path / "a_calcium.crn").write_text(fixture_path("calcium.crn").read_text())
    (tmp_path / "b_quadratic.crn").write_text(fixture_path("example46.crn").read_text())
    code, out, err = run_cli(capsys, "analyze", str(tmp_path), *option)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: steadydim") and err.count("\nerror: ") == 1
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
