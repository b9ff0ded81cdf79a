"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.trace.replay as replay_module
from repro.cache.config import CacheConfig
from repro.machine.presets import r8000, r10000
from repro.sim.engine import Simulator
from repro.verify.config import set_verification


@pytest.fixture(autouse=True, scope="session")
def _verification_on():
    """Runtime-verification oracles are on by default under pytest.

    Every simulation the suite runs doubles as an oracle audit; tests
    that need the oracles off (benchmarks, oracle-failure tests) pass
    ``verify=False`` or use ``repro.verify.config.verification(False)``.
    """
    previous = set_verification(True)
    yield
    set_verification(previous)


@pytest.fixture
def tiny_cache() -> CacheConfig:
    """A 4-set, 2-way cache with 16-byte lines (128 bytes total)."""
    return CacheConfig("tiny", size=128, line_size=16, associativity=2)


@pytest.fixture
def direct_cache() -> CacheConfig:
    """A direct-mapped cache: 8 lines of 16 bytes."""
    return CacheConfig("direct", size=128, line_size=16, associativity=1)


@pytest.fixture
def r8000_full():
    return r8000()


@pytest.fixture
def r8000_small():
    """The scaled R8000 used by most simulation tests."""
    return r8000(64)


@pytest.fixture
def r10000_small():
    return r10000(64)


@pytest.fixture
def simulator(r8000_small) -> Simulator:
    return Simulator(r8000_small)


@pytest.fixture
def vectorized_replays(monkeypatch) -> list:
    """The stored traces replayed with their stored shadow verdicts, in
    order: ``replay_into`` calls ``replay_stream`` through the module
    global once per such replay."""
    calls: list = []
    real = replay_module.replay_stream

    def spy(hierarchy, stored) -> None:
        calls.append(stored)
        real(hierarchy, stored)

    monkeypatch.setattr(replay_module, "replay_stream", spy)
    return calls


def sampler_series(obs) -> dict[str, list[dict]]:
    """The cache sampler's miss-class series recorded in ``obs``, without
    their timestamps (which differ between any two runs)."""
    return {
        name: [
            {key: value for key, value in sample.items() if key != "t"}
            for sample in obs.metrics.series(name).samples
        ]
        for name in ("cache.l1.classes", "cache.l2.classes")
    }
