import dataclasses
import math

import numpy as np
import pytest

from haraux import cli, functions


@pytest.fixture
def rng():
    return np.random.default_rng(0x48415241)


@pytest.fixture(scope="session")
def figure1_dir(tmp_path_factory):
    """Run the figure command once per session; several tests read it."""
    out = tmp_path_factory.mktemp("figure1")
    code = cli.main(["figure1", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture
def half_line_psi():
    """psi = t^2/2 on (0, inf): psi' is 1-Lipschitz on a half-line, which
    the derivative of no catalog barrier is."""
    return dataclasses.replace(functions._quadratic_scalar(), name="quadratic on (0, inf)",
                               dom=(0.0, math.inf), conj_dom=(0.0, math.inf))
