"""Self-tests of the benchmark harness (bench/).

Run with ``python -m pytest bench/tests``.  They drive every workload at
tiny sizes through the measured loop, the tracer and the oracle.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from oracle import NetworkOracle  # noqa: E402
from workloads import FIXTURES, WORKLOADS, fixture_networks, random_network, write_inputs  # noqa: E402

from steadydim import cli  # noqa: E402
from steadydim.netmodel import parse_network  # noqa: E402


def _tiny_run(tmp_path, workload: str, seed: int = 7, traced: bool = False):
    nets = WORKLOADS[workload].build(seed, True)
    paths = write_inputs(nets, tmp_path)
    run = bench.Run(cli, nets, paths, seed, tracer.Recorder() if traced else None)
    run.warm_up(0.0)
    run.measure(0.0)
    return run


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_workload_passes_the_oracle(tmp_path, workload):
    run = _tiny_run(tmp_path, workload)
    reports, bad = bench.check_reports(run, seed=7)
    assert not bad
    assert all(ok for _, ok in run.timed)
    assert len(run.plain) == len(run.nets)
    metrics = bench.end_to_end(run, setup_s=0.1, rss_mb=1.0)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_cover_each_operation(tmp_path, workload):
    run = _tiny_run(tmp_path, workload, traced=True)
    profiles = run.recorder.op_profiles()
    assert len(profiles) == sum(len(v) for v in run.traced_ops.values()) > 0
    for _, dur, selfs, calls in profiles:
        assert min(selfs.values()) >= -1e-9
        assert sum(selfs.values()) == pytest.approx(dur, rel=1e-9, abs=1e-9)
        assert calls[tracer.ROOT] == 1
    reports, bad = bench.check_reports(run, seed=7)
    assert not bad
    outputs = [run.reference[i][1] for i in range(len(run.nets))]
    metrics, _ = bench.per_layer(run, bench.report_counters(reports, outputs))
    assert metrics["netmodel.parse_network.calls"][0] == len(run.nets)
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith(".self_s"))


def test_recorder_restores_every_patched_name():
    wanted = tracer.targets()

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [current(owner, attr) for owner, attr, _ in wanted]
    rec = tracer.Recorder()
    rec.install()
    assert all(current(o, a) is not b for (o, a, _), b in zip(wanted, before))
    rec.uninstall()
    assert all(current(o, a) is b for (o, a, _), b in zip(wanted, before))


def test_failing_operations_count_and_patches_are_restored(tmp_path):
    nets = WORKLOADS["chain_scale"].build(1, True)
    run = bench.Run(cli, nets, [tmp_path / "missing.crn"] * len(nets), 1, tracer.Recorder())
    before = cli.parse_network
    run.measure(0.0)
    assert cli.parse_network is before
    assert not any(ok for _, ok in run.timed)


def test_fixture_transcriptions_match_the_fixture_files():
    for net in fixture_networks():
        from_file = parse_network((REPO / "fixtures" / f"{net.name}.crn").read_text())
        assert parse_network(net.text).render() == from_file.render()
    assert len(FIXTURES) == len(list((REPO / "fixtures").glob("*.crn")))


def test_random_generator_matches_the_acceptance_generator():
    spec = importlib.util.spec_from_file_location("steadydim_test_conftest", REPO / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for sizes in ((6, 8), (10, 14)):
        ours, theirs = random.Random(3), random.Random(3)
        for i in range(25):
            net = random_network(ours, f"r{i}", *sizes)
            assert parse_network(net.text).render() == conftest.random_network(theirs, *sizes).render()


def test_oracle_rejects_wrong_verdicts(tmp_path):
    run = _tiny_run(tmp_path, "screen_small")
    reports, bad = bench.check_reports(run, seed=7)
    assert not bad
    rng = random.Random(0)
    for net, report in zip(run.nets, reports):
        oracle = NetworkOracle(net)
        n, r = report["network"]["n"], report["network"]["r"]
        exists = report["cone"]["exists"]
        flipped = dict(report, cone={"exists": not exists, "witness": None if exists else ["1"] * r})
        assert oracle.check(flipped, rng), net.name
        if report["F_test"]["status"] == "all_degenerate":
            lie = dict(report["F_test"], status="nondegenerate_exists", witness_w=["0"] * r, witness_h=["1"] * n)
            assert oracle.check(dict(report, F_test=lie), rng), net.name
