"""Pinned reports: ``analyze --json`` must reproduce them byte for byte.

``tests/data/golden_reports.jsonl`` holds one record per (input, seed):
every fixture and every network in ``tests/data`` at seeds 0 and 7.
Those are the criterion-6 chains of 12 and 30 species
(``chain*.crn``), the replicated ``example42_family(3, 3)`` and
``example42_family(8, 10)`` of ``bench/workloads.py``, which take the
certificate path (the second one's certificate names a basis of 18
blocks, and deciding its 416 bordering minors pins the block-by-block
minor test), and two random networks of its ``screen_small`` workload at
seed 0: ``empty_cone.crn``
(``random003``), whose cone is empty and whose simplex pivots through
non-integral ratios, and ``fractional_rref.crn`` (``random001``), whose
stoichiometric matrix has an RREF entry that is not an integer, and
``p_multiple.crn``, whose stoichiometric coefficients are 2^61 - 1, the
modulus of the rank test, so every sample's rank modulo p falls short
and each witness is a hunted point, and ``p_multiple_k6.crn``, six
disjoint copies of that block, where each test hunts six rounds, one
per block, to ``samples_tried`` 7 (its two records were written before
the hunt came to check a minor from its entries' values, and the change
kept them).  A change that alters any
of these bytes must be deliberate: regenerate the file and say why in
CHANGES.md (a report format change also bumps ``schema_version``; a
change of values only, such as ``samples_tried``, keeps it).  The
``F_test`` records changed in value when the F-test came to share the
f-test's sample: its first sample is the f witness's u, with only h
drawn from the "F-test" stream, and W reduced into the f-test's echelon.
So every F witness (u, h and w) and every F certificate's sample
changed, while no status, sample count, certificate basis, conclusion
or note did.
Every record also round-trips through ``report_from_dict`` byte for byte.
"""

import json
from pathlib import Path

import pytest

from steadydim import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = [json.loads(line) for line in (REPO / "tests" / "data" / "golden_reports.jsonl").read_text().splitlines()]


def test_golden_set_covers_every_fixture_and_both_chains():
    inputs = {record["input"] for record in GOLDEN}
    networks = sorted((REPO / "fixtures").glob("*.crn")) + sorted((REPO / "tests" / "data").glob("*.crn"))
    assert inputs == {p.relative_to(REPO).as_posix() for p in networks}
    assert {"tests/data/chain12.crn", "tests/data/chain30.crn", "tests/data/example42_k3_d3.crn"} <= inputs
    assert {(record["input"], record["seed"]) for record in GOLDEN} == {(i, s) for i in inputs for s in (0, 7)}


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: f"{Path(r['input']).stem}-seed{r['seed']}")
def test_report_bytes_are_pinned(record, capsys):
    code = cli.main(["analyze", str(REPO / record["input"]), "--json", "--seed", str(record["seed"])])
    assert code == 0
    assert capsys.readouterr().out == record["stdout"]


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: f"{Path(r['input']).stem}-seed{r['seed']}")
def test_report_round_trips_byte_for_byte(record):
    # bordering certificates of f and F, implied_by_f, an empty cone and hunted witnesses
    report = cli.report_from_dict(json.loads(record["stdout"]))
    assert json.dumps(cli.report_to_dict(report)) + "\n" == record["stdout"]
