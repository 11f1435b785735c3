import os
import sys
from unittest import mock

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gcdseq.conjectures import verify_pair_identities, verify_symmetry  # noqa: E402
from gcdseq import families  # noqa: E402
from gcdseq.families import MAIN  # noqa: E402


# Two reports over main to 2000, computed once per session and shared by
# test_acceptance.py and test_conjectures.py; the reports are immutable. Each
# costs one left-factorial walk; symmetry adds one factor-route term per mirror index
# beyond the scan (up to about 4e6), well under a second in all.

@pytest.fixture(scope="session")
def symmetry_main_2000():
    return verify_symmetry(MAIN, 2000)


@pytest.fixture(scope="session")
def pairs_main_2000():
    return verify_pair_identities(MAIN, 2000)


@pytest.fixture
def fresh_columns():
    """Empty residue columns for one test, so the terms it scans are walked
    inside it; the process's columns come back, untouched, after it."""
    with mock.patch.dict(families._COLUMNS, clear=True):
        yield
