import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gcdseq.conjectures import verify_pair_identities, verify_symmetry  # noqa: E402
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
