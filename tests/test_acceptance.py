"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints the per-criterion pass/fail summary line, so
``pytest tests/test_acceptance.py -v -s`` doubles as the human-readable
verification report.  The CLI command ``engelkit verify`` drives the same
criteria.

Each criterion's checks, label, verdict and detail text, must also equal
the ones stored in ``tests/data/checks.json``, so a change that moves a
margin or a reported figure shows here.  ``python tests/test_acceptance.py``
rewrites that file from the code on the path; run it only to record a
change that is meant to move the text, and say which in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from engelkit import acceptance

CHECKS = Path(__file__).resolve().parent / "data" / "checks.json"


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.CRITERIA[number]()
    print(result.summary_line())
    details = "\n".join(result.detail_lines())
    assert result.passed, f"\n{result.summary_line()}\n{details}"
    expected = json.loads(CHECKS.read_text())[str(number)]
    assert [list(check) for check in result.checks] == expected


def test_a_result_passes_exactly_when_every_check_does():
    result = acceptance.CriterionResult(0, "two checks")
    assert result.passed and result.checks == []
    result.add("first", 1, "detail")
    assert result.passed and result.checks == [("first", True, "detail")]
    result.add("second", 0)
    assert not result.passed and result.summary_line() == "criterion  0 [FAIL] two checks"
    assert result.detail_lines()[1] == "    [FAIL] second: "


if __name__ == "__main__":
    # One check a line, so a moved figure reads as a one-line diff.
    blocks = [
        f'"{number}": [\n' + ",\n".join(f"  {json.dumps(list(check))}" for check in criterion().checks)
        + "\n]"
        for number, criterion in acceptance.CRITERIA.items()
    ]
    CHECKS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    sys.exit(0)
