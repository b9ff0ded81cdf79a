"""Every version of every app through every consumer of its reference
stream: capture execution, the SMP simulator and din export.

All three observe the same :class:`~repro.trace.recorder.TraceRecorder`
the serial simulator uses, so each must see exactly what it sees — the
``record_grid`` versions (matmul ``interchanged``, 12,544 references,
and ``transposed``, 9,408) included.
``sor`` ``threaded_blocking`` stays out: it builds its package outside
the context (see ``repro.apps.LINT_PROGRAMS``).
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.analysis.capture import run_capture
from repro.apps import matmul, nbody, pde, sor
from repro.machine.presets import DEFAULT_SCALE, r8000
from repro.sim.engine import Simulator
from repro.smp.engine import SmpSimulator
from repro.smp.machine import SmpMachine
from repro.trace.dinero import DinWriter

MACHINE = r8000(DEFAULT_SCALE)

_APPS = {
    "matmul": (matmul.VERSIONS, matmul.MatmulConfig(n=16)),
    "pde": (pde.VERSIONS, pde.PdeConfig(n=33, iterations=2)),
    "sor": (
        {**sor.VERSIONS, "threaded_exact": sor.threaded_exact},
        sor.SorConfig(n=31, iterations=2),
    ),
    "nbody": (nbody.VERSIONS, nbody.NbodyConfig(bodies=200, iterations=1)),
}

#: ``"app:version"`` -> a fresh traced program.
PROGRAMS = {
    f"{app}:{version}": (lambda make=make, config=config: make(config))
    for app, (versions, config) in _APPS.items()
    for version, make in versions.items()
}

#: Versions driving a dependent package, which an SMP run rejects.
DEPENDENT = {"sor:threaded_exact"}

#: sha256 of each version's din export at the sizes above.
DIN_SHA256 = {
    "matmul:interchanged": "f2a7c541c00e87442bae3954e48e0f04fc714d209ef05c9bfb5299829a7f6254",
    "matmul:threaded": "794fa459f4aab7d384eafb67e5018d0d65000268c26fb524e53f5959aef06773",
    "matmul:tiled_interchanged": "929970ec7387f548b22690dc3e049f4ef51bded1a5e58dd843a43257383a1891",
    "matmul:tiled_transposed": "07a191a9fd3f7c19f4463b38e5a6781562d3ef57afedca4d3eb8b64c46d3b772",
    "matmul:transposed": "af3c4ce3e0473240630a5a072457e4740bceea8aa7132911598bf818a60c27b5",
    "nbody:threaded": "46d1e443ba3abf609d429994b137491a5ad55b7f37460e0e6a3337429233a8b9",
    "nbody:unthreaded": "06474a010e60859f05238778d6f9cf72f1e20a325d07de518025226b8fd224c4",
    "pde:cache_conscious": "0535162a8576331f2c0ab7ab9e7d8aa2be656c251cf53f80cce88753b6edd24a",
    "pde:regular": "aec80522a0684d8e4992194acac4a549cf4253f1f2c3aa6f8cfdc458f26cdeda",
    "pde:threaded": "5da1131013f58500ec6af5abd7b0ed4da2d44cc1bb58bd4419216b73cc5f16a3",
    "sor:hand_tiled": "0121c95ce6ec5d728399a636d02f228dfb32f82cb2805a928530d9b5dbad7227",
    "sor:threaded": "4ede281577d7b42cc15758f8c449eb969b7784bc7d6291092a23b63c003aeff0",
    "sor:threaded_exact": "c2e9ca328376753e56dfffae2d158d6ab42cea26a8fd9dcab8cfeb6f229610a2",
    "sor:untiled": "fa036638aff62612909728e6feb76146e6ecaf59b28f86f203a45be2aaf6bac6",
}


@pytest.fixture(scope="module")
def exports():
    """``key -> (din text, SimResult)``: each program simulated once with
    a :class:`DinWriter` observing its recorder."""
    runs = {}
    for key, make in PROGRAMS.items():
        buffer = io.StringIO()
        program = make()

        def exporting(ctx, program=program, buffer=buffer):
            ctx.recorder.observers.append(DinWriter(buffer))
            return program(ctx)

        result = Simulator(MACHINE).run(exporting)
        runs[key] = (buffer.getvalue(), result)
    return runs


def test_every_version_is_covered():
    assert len(PROGRAMS) == 14
    assert set(DIN_SHA256) == set(PROGRAMS)


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_capture_runs(key):
    capture = run_capture(PROGRAMS[key](), MACHINE)
    forks = sum(len(package.all_records) for package in capture.packages)
    assert (forks > 0) == key.split(":")[1].startswith("threaded")


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_din_export_writes_every_data_reference(exports, key):
    text, result = exports[key]
    assert text.count("\n") == result.stats.data_refs
    assert hashlib.sha256(text.encode()).hexdigest() == DIN_SHA256[key]


@pytest.mark.parametrize("key", sorted(set(PROGRAMS) - DEPENDENT))
def test_one_cpu_smp_matches_serial(exports, key):
    serial = exports[key][1].stats
    smp = SmpSimulator(SmpMachine(MACHINE, 1)).run(PROGRAMS[key]())
    (cpu,) = smp.cpus
    assert (cpu.stats.data_refs, cpu.stats.l1.misses, cpu.stats.l2.misses) == (
        serial.data_refs,
        serial.l1.misses,
        serial.l2.misses,
    )
