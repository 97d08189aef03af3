import os
import sys

import pytest

# a bytecode cache left in src/ makes every later fresh call start faster
# than a user's first, so neither this process nor the CLI processes the
# tests start write one, whatever the environment says
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

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
