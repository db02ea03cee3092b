import pytest

from dssyklab import moments as mo
from dssyklab import qhermite as qh

_EXACT_CACHES = (mo._paired_vacuum, mo._block_vacuum, mo._packed_rt_moment, qh._hermite_walk,
                 qh._rogers_weight, qh.monomial_to_hermite)


def _clear_exact_caches():
    for cached in _EXACT_CACHES:
        cached.cache_clear()


@pytest.fixture
def cold_exact_lab(monkeypatch):
    """The exact lab as a fresh process finds it: no generating-function
    column, no walked moment and no memoized walk or pairing.  The columns
    and moments are restored afterwards, and the memos cleared again, so
    nothing computed inside the test outlives it."""
    monkeypatch.setattr(mo, "_B_POWERS", [[]])
    monkeypatch.setattr(mo, "_VACUA", {})
    _clear_exact_caches()
    yield
    _clear_exact_caches()
