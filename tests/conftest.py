import pytest

from ofdmjrc import build_config


@pytest.fixture(scope="session")
def cfg():
    return build_config()
