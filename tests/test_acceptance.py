"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
via the CLI as `qkdsim selftest`.
"""

import pytest

from qkdsim.harness.selftest import CHECKS


@pytest.mark.parametrize("check", CHECKS,
                         ids=[f"criterion-{c.number:02d}-{c.slug}" for c in CHECKS])
def test_acceptance_criterion(check):
    result = check.fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {check.number:2d} {check.slug}: {result.detail}")
    assert result.passed, f"criterion {check.number} ({check.slug}): {result.detail}"
