import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pcelabs import _kernels

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def use_engine(monkeypatch):
    """``use_engine("numba")`` or ``use_engine("numpy")``: contexts and
    solves made afterwards run on that engine.  The engine is numba
    exactly when numba imports, so this sets whether it did; where numba
    is missing the numba engine runs its kernels un-jitted."""

    def use(engine: str) -> None:
        monkeypatch.setattr(_kernels, "HAVE_NUMBA", engine == "numba")

    return use


@pytest.fixture
def published_optima():
    """Published optimal sidelobe energies at the paper's sizes (Packebusch &
    Mertens, arXiv:1512.02475): an oracle independent of the packaged table."""
    return {
        13: 6, 20: 26, 21: 26, 24: 36, 27: 37, 28: 50, 32: 64, 34: 65,
        36: 82, 38: 87, 40: 108, 41: 108, 42: 101, 43: 109, 44: 122, 45: 118,
    }
