"""Pinned SHA-256 digests of the CLI's JSON reports at the default seed.

Each command below is run through `CliRunner` with `--format json`; the
digest covers the exit code and the exact output bytes.  A refactor that
leaves the reports byte-identical keeps this test green.  The digests in
`tests/data/report_digests.json` are regenerated only together with a
`reports.SCHEMA_VERSION` bump, never to make a changed report pass:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from nilform import reports
from nilform.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "report_digests.json")

COMMANDS = [
    "check --dims 7..10",
    "charnilp --dims 7..9 --certificates",
    *(f"tables --id {n}" for n in range(1, 10)),
    "dertower --family 81 --dim 7",
    "dertower --family 6 --dim 8",
    "distinguish --dim 12",
]


def digest(command):
    result = CliRunner().invoke(main, command.split() + ["--format", "json"])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    payload = f"exit {result.exit_code}\n{result.output}".encode()
    return hashlib.sha256(payload).hexdigest()


def _pinned():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_digest_file_matches_schema_and_commands():
    pinned = _pinned()
    assert pinned["schema"] == reports.SCHEMA_VERSION
    assert sorted(pinned["digests"]) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_digest(command):
    assert digest(command) == _pinned()["digests"][command]


if __name__ == "__main__":
    with open(DIGESTS, "w") as fh:
        json.dump(
            {"schema": reports.SCHEMA_VERSION,
             "digests": {c: digest(c) for c in COMMANDS}},
            fh, indent=1,
        )
        fh.write("\n")
