import pytest

from qcharlab import tensor


@pytest.fixture(autouse=True)
def empty_tensor_caches():
    """Every test starts and ends with empty ``qcharlab.tensor`` caches, so
    a test that patches a name in ``qcharlab.tensor`` classifies afresh and
    leaves no report, spectrum or recognition behind for the next one."""
    tensor.clear_caches()
    yield
    tensor.clear_caches()
