import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


from toricount import count  # noqa: E402
from toricount.ff import make_field  # noqa: E402


@pytest.fixture(autouse=True)
def cold_count_caches():
    """Start every test with no compiled kernel program and no kept multidegree, so that
    a spy on `_group`, `multidegree` or a patched constant sees the compile step run."""
    count._compile.cache_clear()
    count._degrees.clear()


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)
