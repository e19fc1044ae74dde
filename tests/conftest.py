import os
from pathlib import Path

import numpy as np
import pytest

from qscat import PhysicsContext

# the CLI and WKB tests start `python` subprocesses; give them the same
# checkout's src that pytest's `pythonpath` setting gives this process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def ctx():
    return PhysicsContext()
