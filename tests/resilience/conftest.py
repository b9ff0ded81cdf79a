"""Shared fixtures: every test starts and ends with no armed faults."""

import pytest

from repro.resilience.faults import FAULTS


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture(autouse=True)
def plenty_of_cpus(monkeypatch):
    """Make the --jobs auto-degrade gate see a multi-core host.

    The parallel/chaos/supervision tests exercise real worker processes and
    must keep doing so on single-CPU CI runners, where the campaign
    would otherwise (correctly) degrade to the serial loop.  The degrade
    decision itself is tested explicitly by patching this back down.
    """
    monkeypatch.setattr(
        "repro.resilience.campaign._effective_cpus", lambda: 8
    )
