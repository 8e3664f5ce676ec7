"""Setup shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def default_caps(monkeypatch):
    """Run each test at the default solver caps: a TSPKERN_CAP_* variable
    left in the shell would lower a cap, and so change results, or raise
    one, which makes every solving command exit 2."""
    for var in [v for v in os.environ if v.startswith("TSPKERN_CAP_")]:
        monkeypatch.delenv(var)
