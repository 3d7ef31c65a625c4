import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from modpforms.basis import GradedForm
from modpforms.series import delta_power


@pytest.fixture(scope="session")
def delta3_table_1e6():
    return delta_power(3, 1, 10**6)


@pytest.fixture(scope="session")
def delta7_table_1e6():
    return delta_power(7, 1, 10**6)


@pytest.fixture(scope="session")
def delta2_mod3_module():
    from modpforms.module import build_module

    return build_module(GradedForm(delta_power(3, 2, 4009), 24))


@pytest.fixture(scope="session")
def delta_mod3_module():
    from modpforms.module import build_module

    return build_module(GradedForm(delta_power(3, 1, 4009), 12))


@pytest.fixture(scope="session")
def delta2_mod7_module():
    from modpforms.module import build_module

    return build_module(GradedForm(delta_power(7, 2, 4009), 24))
