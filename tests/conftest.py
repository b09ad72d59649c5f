import pytest

from qcharlab import tensor


@pytest.fixture(autouse=True)
def empty_normal_cache():
    """Every test starts and ends with an empty ``classify_normal`` cache, so
    a test that patches a name in ``qcharlab.tensor`` classifies afresh and
    leaves no report behind for the next one."""
    tensor.clear_normal_cache()
    yield
    tensor.clear_normal_cache()
