"""Acceptance gate: one test per shipped criterion.

Criteria 5, 6, and 8 assert gap-exponential limit rates that the
implemented geometry provably cannot meet (the rate gap vanishes
continuously at every component edge, giving power or logarithmic boundary
layers); they are kept as stated and fail honestly.  The measured laws are
asserted in test_limits/test_quantization instead.
"""

import pytest

from toricray.acceptance import ALL_CRITERIA, run_acceptance


@pytest.mark.parametrize("cid", sorted(ALL_CRITERIA))
def test_criterion(cid):
    result, = run_acceptance([cid])
    print(result.as_line())
    assert result.passed, result.as_line()
