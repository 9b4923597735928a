"""Tier-2 sweep: every oracle suite passes at every seed from 0 to 19.

The acceptance tests run each suite at one seed; this sweep catches
instances that only some seeds draw.  It takes several minutes, so it is
marked ``slow`` and left out of the default run::

    pytest -m slow tests/test_seed_sweep.py
"""

import pytest

from relugeom.verify import SUITES, run_suite


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite, seed):
    result = run_suite(suite, seed)
    assert result.passed, result.first_counterexample()
