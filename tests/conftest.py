import pytest

from ecomu3.diagram import load_bundled
from ecomu3.groups import standard_modules, symmetric_group
from ecomu3.resolution import free_resolution
from ecomu3.robustness import sweep


@pytest.fixture(scope="session")
def resolution():
    """The shared length-15 resolution over the symmetric group on 3 letters."""
    return free_resolution(symmetric_group(3), 15)


@pytest.fixture(scope="session")
def catalog():
    return standard_modules(3)


@pytest.fixture(scope="session")
def sweeps():
    """(diagram, sweep(diagram)) for both bundled diagrams, run once per session."""
    return [(d, sweep(d)) for d in (load_bundled(2), load_bundled(3))]
