import sys

import pytest


@pytest.fixture
def forbid_make_grid(monkeypatch):
    """Make every qforge reference to spectral.make_grid raise."""
    from qforge import spectral

    real = spectral.make_grid

    def no_grid(*args, **kwargs):
        raise AssertionError("make_grid called")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qforge" and getattr(mod, "make_grid", None) is real:
            monkeypatch.setattr(mod, "make_grid", no_grid)
