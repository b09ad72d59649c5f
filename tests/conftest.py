import pytest

from qcharlab import sweep


@pytest.fixture(autouse=True)
def empty_tensor_caches():
    """Every test starts and ends with the caches of one command empty
    (``sweep.clear_caches``), so a test that patches a name in
    ``qcharlab.tensor`` classifies afresh and leaves no report, spectrum or
    recognition behind for the next one."""
    sweep.clear_caches()
    yield
    sweep.clear_caches()
