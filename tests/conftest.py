import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gcdseq.conjectures import verify_pair_identities, verify_symmetry  # noqa: E402
from gcdseq.families import MAIN  # noqa: E402


# The two heaviest scans of the suite, computed once per session and shared by
# test_acceptance.py and test_conjectures.py; the reports are immutable.

@pytest.fixture(scope="session")
def symmetry_main_2000():
    return verify_symmetry(MAIN, 2000)


@pytest.fixture(scope="session")
def pairs_main_2000():
    return verify_pair_identities(MAIN, 2000)
