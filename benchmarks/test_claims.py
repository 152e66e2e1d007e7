"""Runs every row of `claims.CLAIMS`: its campaign, its report
(written to ``benchmarks/reports/<id>.txt``) and its check. ``-k <id>``
runs one row."""

import pytest

from claims import CLAIMS, write_report


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim):
    result = claim.campaign()
    write_report(claim.id, claim.report(result))
    claim.check(result)
