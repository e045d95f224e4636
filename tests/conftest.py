import random

import pytest
from hypothesis import settings

# every property test replays the same examples and leaves no example database
settings.register_profile("unitpoly", derandomize=True, database=None, deadline=None)
settings.load_profile("unitpoly")


@pytest.fixture
def rng():
    # fixed stream so failures replay exactly
    return random.Random(0x5EED)
