"""Pinned reports: ``analyze --json`` must reproduce them byte for byte.

``tests/data/golden_reports.jsonl`` holds one record per (input, seed):
every fixture and the criterion-6 chains of 12 and 30 species
(``tests/data/chain*.crn``) at seeds 0 and 7.  A change that alters any
of these bytes must be deliberate: regenerate the file and say why in
CHANGES.md (a report format change also bumps ``schema_version``).
"""

import json
from pathlib import Path

import pytest

from steadydim import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = [json.loads(line) for line in (REPO / "tests" / "data" / "golden_reports.jsonl").read_text().splitlines()]


def test_golden_set_covers_every_fixture_and_both_chains():
    inputs = {record["input"] for record in GOLDEN}
    fixtures = {p.relative_to(REPO).as_posix() for p in (REPO / "fixtures").glob("*.crn")}
    assert inputs == fixtures | {"tests/data/chain12.crn", "tests/data/chain30.crn"}
    assert {record["seed"] for record in GOLDEN} == {0, 7}


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: f"{Path(r['input']).stem}-seed{r['seed']}")
def test_report_bytes_are_pinned(record, capsys):
    code = cli.main(["analyze", str(REPO / record["input"]), "--json", "--seed", str(record["seed"])])
    assert code == 0
    assert capsys.readouterr().out == record["stdout"]
