"""Every version of every app through every consumer of its reference
stream: capture execution, the SMP simulator, din export and the trace
store.

The first three observe the same
:class:`~repro.trace.recorder.TraceRecorder` the serial simulator uses,
so each must see exactly what it sees — the ``record_grid`` versions
(matmul ``interchanged``, 12,544 references, and ``transposed``, 9,408)
included.  The trace store taps the simulator's hierarchy; every array
it stores is pinned.
``sor`` ``threaded_blocking`` stays out: it builds its package outside
the context (see ``repro.apps.LINT_PROGRAMS``).
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from repro.analysis.capture import run_capture
from repro.apps import matmul, nbody, pde, sor
from repro.machine.presets import DEFAULT_SCALE, r8000, r10000
from repro.sim.engine import Simulator
from repro.smp.engine import SmpSimulator
from repro.smp.machine import SmpMachine
from repro.trace.dinero import DinWriter
from repro.trace.store import TraceCapture, TraceKey, TraceStore

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


#: The stored arrays of a trace container, in file order.
ARRAYS = ("lines", "counts", "batch_ends", "batch_writes", "shadow_hits")

#: The one run on the R10000 (2-way L1D) beside the R8000 runs.
R10000_RUN = "sor:threaded@r10000"

#: sha256 of each stored array of each version's trace at the sizes
#: above, and of ``R10000_RUN``'s, whose 2-way L1D stores an empty
#: shadow annotation.
STREAM_SHA256 = {
    "matmul:interchanged": {
        "lines": "0d31f22a82c3e55e2e2d20c20a7534ae519e52f9e0dc713ecf987699e87b7a0a",
        "counts": "bd981a7deb9d31bee98cf68868251c9403b65224d9d481cd7f59dff2cb0c43dd",
        "batch_ends": "66b56e63e44d8f80735663b12f32bcbaffdf17c6a9ee94d9a4f91eeaf0651e1b",
        "batch_writes": "8a46047ebd66fc4ef5bbc40aeb31c9dae457e379db3562eb72460de1db32eeab",
        "shadow_hits": "d1568c0296ff9d0db07c0f5dafce40f12e4d1e0f534ccf5f60e1828d6b2944dd",
    },
    "matmul:threaded": {
        "lines": "9151f67cd2ea71ec673a51e5a5793f9b6dc0d1c5a5b1a1723da9cfd3aeab3a5b",
        "counts": "2324ccefbd9de8992969c023d32616ebcee6d952dc370b308c5294ecc0e1fa0a",
        "batch_ends": "b85b3cf7177eaeb626486674b83e13e950df543ff11bbfc6d0f114d98afe2dee",
        "batch_writes": "ec452fbc76b2c7477773e02d3f667ee653dcaf5030b769b77f421f4e435bac17",
        "shadow_hits": "c441160a08fe41a20f8c40806565f88993718fbc805a5d5602eb88bb118968d6",
    },
    "matmul:tiled_interchanged": {
        "lines": "05e86c759eeb9383ae65b57a547c84e9b66e6fbc90fdf218ffe5dd98e56894d7",
        "counts": "7e1d5e0cda5e58e88a7a150831db8431b1c6cabf152246c57435cdebe3bbd027",
        "batch_ends": "898df7546e288a56177cbbbd6ea95a95f91131af833d82cb026105a39966ce54",
        "batch_writes": "2e22fd435060cd5d3cf5e3ef39f79e198b35bd2c4af31974db36601b3a2f4c91",
        "shadow_hits": "db525503ce3fa736dfaa2be7b64c5111cfeec9c4a3163aa4dd764c7199b4c5f8",
    },
    "matmul:tiled_transposed": {
        "lines": "18f879e12fba17abe8613abdb8ba05ce8b4d997b044b140c0c49330cd0bfd742",
        "counts": "7631d294f271ffe86dad3a9fe0900f2bc8d06b10c670e92a194e546d7826d25a",
        "batch_ends": "4eabb6beac04a5d408679fed1d836c4f6d1d97c6e15e1e2695c8514a3f189359",
        "batch_writes": "4dff30080bd39fa7bb318c9b09902ef94785149afff6a3feb9a10e99052d7173",
        "shadow_hits": "d6d1e3113fd3e194a1060a1c33215407edf1b03fa1dd7004e6b7d05994459264",
    },
    "matmul:transposed": {
        "lines": "660b037a1f39de181ec0750eadc4d5fa993e865f51d418ad060001a12f2e7d72",
        "counts": "66f100b60d393d0675ac6ca3fb02d690b153c4c295995ae4b1cf6e5e853efda5",
        "batch_ends": "9eed7ed4e628e8cf7e8f1223e3436b91cca72a493a6e5738879b3382cae0e71a",
        "batch_writes": "cd55e855988b5ecc4faf7636189513156100e83d9036c25674e9f8f62cd38ef7",
        "shadow_hits": "22f8a7bb159e16c823b512da434ab4f7d0b34060249296d4e3b11d2d08c80960",
    },
    "nbody:threaded": {
        "lines": "894d9babcc76af6528ef1d72feeea0b4d5e590c54e3d1f4e694df3dbbc33312b",
        "counts": "e83252b7915cb76947698e79f64e5169e0d06f5dd36c01a83069c5c54507bd75",
        "batch_ends": "7da94a4b6f44787e39cf8b10dfc6655c34fa2d0f23dd4e8da7bb3ccebe558b0d",
        "batch_writes": "98704e3fedd3f7841e3e1a50c330774f6c9aebb08520520c1941eb26a58515a8",
        "shadow_hits": "c3a11695f0fe5abb18fa99a10b19a7913ecf29fbb60bd10a3476d091d0201ed5",
    },
    "nbody:unthreaded": {
        "lines": "898d67d4ae1e63992b1c0e6dd77006c19a0767a0a9621f6d034c5a7e6cf079fb",
        "counts": "b27676c62c186f15a32e7291060f1106691fe279af05e4a7f1af388953f776d5",
        "batch_ends": "29c1d48bdadb491bda6b71af9952a110485b4f133e9584e233e4fe6e0975f7c6",
        "batch_writes": "7e75807a26f1942882c38c480dbc24d2baba34a74c2f4240cf4d11745e18f12c",
        "shadow_hits": "f80ba067f58e2af89ffac5f772825d8dbbd82ee6c656bd45b6a6cd739bc5072b",
    },
    "pde:cache_conscious": {
        "lines": "687340458b60bcd8687fede032c0c02f11645f021112db58bbc62c63fe97ee00",
        "counts": "325c4f81e56db009fb3abfe1358ae98669ab33305d82e288f969d3ac477a5c6f",
        "batch_ends": "4dfaa482493ea1f315b426a498df96138d68c949f7b4cf9e1830883273a621f3",
        "batch_writes": "02121632c9836ee16af8e53b3f363773f58f4909a2995ccfe0a6d84fd15f4195",
        "shadow_hits": "197013d325a4c6b151b248ef23876614ea6a48c002da04f3f535d933f8cc75ba",
    },
    "pde:regular": {
        "lines": "f0a4ef922b62bc26ae74e83662433feda03bad2eff4e52d15ad7ca4ae923b226",
        "counts": "d0dbcb1b1520364295e1d413c3198c18c1911172cd87f56d95c235576e159548",
        "batch_ends": "c7b62d46ac2adbce9deb5f25d72d3af0cdaaa0b3507302fef61cbbdd13144b2b",
        "batch_writes": "f5034e12103f18f1a247addb6b1554a15fcae9d46693244c11c0d4852fba089c",
        "shadow_hits": "7b57f89ac04e17f760f037eb96791d09c5195de24732a237c601400bfd24311f",
    },
    "pde:threaded": {
        "lines": "df66578ce2469cf4dfece1a3d95bc7eba24cdbaeaaf0ad8469223ab354531d21",
        "counts": "8b7f611da676af84e06e5c34c927f42a2b6b167aa0caa6191b32e877ce668a38",
        "batch_ends": "b59f0e333a88f5a2a9c291b007ad52e43ac3980459e0eda0e47ce473b99296b6",
        "batch_writes": "047b814ab10085e16c2b3fd19b02c136c61600cd4717ac039b3e0160dd5aca97",
        "shadow_hits": "f386819171172c188feb9a55363e0a2c0d1f7ceeb6454267bb1a74a03c0024c1",
    },
    "sor:hand_tiled": {
        "lines": "d5bdbd8aef61e0a45da6e66f4d9657de1c66c616bf60d6b35bf2c21d88f39c01",
        "counts": "785474eb8d3237f9328160a71b69b4f5ed4a641671dddf43a607beaff3c24776",
        "batch_ends": "7c4abbb8c1b68f6ee39b8b4736e26e4754538ef27cb2706b72418cc5ef397896",
        "batch_writes": "d639d0e10636171da62313eeff122095ffd40d2543de7f241e6ad20573917d03",
        "shadow_hits": "8270681a78aacc0506b35e972cb2e5b2c8114f2e520c60b55f5241363a3d2645",
    },
    "sor:threaded": {
        "lines": "304f63d2e68e7dd82b94419052fb4a3037e0c98a8e7fa9a4d4513f00c77b8d1e",
        "counts": "b5280dd21e7f85e6d9745fb99a69d49ab4bf2ef65f50778b02315de215417ec0",
        "batch_ends": "e3a12ddeb289a6b1b028c9a69672cb07724e91a93b19cafa6f8feb2a2bf67fa6",
        "batch_writes": "7791766cd0dc819f0d729fe1c60a92ff9dd94a530de8cabb5060391ecbb1e836",
        "shadow_hits": "c28489b3562f5a137f3f7284ecaa3835c565ff45b2eab9bb0f370ce65e95a1ed",
    },
    "sor:threaded_exact": {
        "lines": "d93b7385e5d0d70eb9b106d4fd4c183d2b592ae48b29d53f668bc985376e4935",
        "counts": "4afe056e92c1178ded1e901886465a224323a6c193b1e80cf76a22bddfeec76a",
        "batch_ends": "7988e3cbbeb4f506cca522cf3077378e35b7b2e4108f255731e643ecfe1e4cb6",
        "batch_writes": "7791766cd0dc819f0d729fe1c60a92ff9dd94a530de8cabb5060391ecbb1e836",
        "shadow_hits": "c28489b3562f5a137f3f7284ecaa3835c565ff45b2eab9bb0f370ce65e95a1ed",
    },
    "sor:untiled": {
        "lines": "6d188d39ee75c2d5331ab33c5f663a4ac7f0557efce58de6c09d5a0add3ab381",
        "counts": "83ca8c719500d445bbbb1b8e09653b71dc7f3b16310956fa3bafa3072eab529f",
        "batch_ends": "d24a94fefa0faa416a7f0e33bbbacee2abde46ba5ed4a427d2db654fa0ce48fa",
        "batch_writes": "07ac1010abfd23d8588c4515874539c2e958c72dd2635b168574612a377ec3d0",
        "shadow_hits": "f1604d3961159ee2e70cac9c37eef068631bddff0d532f5e7df78139b6abcd40",
    },
    "sor:threaded@r10000": {
        "lines": "1968853d3c8337fac5a47433bb2f47bf2a97c35431f2895c2ee1b92d2c640591",
        "counts": "b5280dd21e7f85e6d9745fb99a69d49ab4bf2ef65f50778b02315de215417ec0",
        "batch_ends": "e3a12ddeb289a6b1b028c9a69672cb07724e91a93b19cafa6f8feb2a2bf67fa6",
        "batch_writes": "7791766cd0dc819f0d729fe1c60a92ff9dd94a530de8cabb5060391ecbb1e836",
        "shadow_hits": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def stored_copy(store, key, capture, result, machine):
    """``result``'s captured stream, put in ``store`` and loaded back."""
    trace_key = TraceKey("every_version", key, machine.name, "test")
    assert store.put(trace_key, capture, result, machine, 4096) == (
        trace_key.digest
    )
    return store.get(trace_key)


def array_sha256(stored) -> dict[str, str]:
    return {
        name: hashlib.sha256(np.asarray(getattr(stored, name)).tobytes())
        .hexdigest()
        for name in ARRAYS
    }


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """``key -> (din text, SimResult, StoredTrace)``: each program
    simulated once with a :class:`DinWriter` observing its recorder and
    a :class:`TraceCapture` tapping its hierarchy, the capture put in a
    :class:`TraceStore` and loaded back."""
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    runs = {}
    for key, make in PROGRAMS.items():
        buffer = io.StringIO()
        capture = TraceCapture()
        program = make()

        def exporting(ctx, program=program, buffer=buffer):
            ctx.recorder.observers.append(DinWriter(buffer))
            return program(ctx)

        result = Simulator(MACHINE).run(exporting, capture=capture)
        stored = stored_copy(store, key, capture, result, MACHINE)
        runs[key] = (buffer.getvalue(), result, stored)
    return runs


@pytest.fixture(scope="module")
def r10000_run(tmp_path_factory):
    """``(machine, SimResult, StoredTrace)`` for ``R10000_RUN``."""
    machine = r10000(DEFAULT_SCALE)
    capture = TraceCapture()
    result = Simulator(machine).run(PROGRAMS["sor:threaded"](), capture=capture)
    store = TraceStore(tmp_path_factory.mktemp("r10000"))
    return machine, result, stored_copy(
        store, R10000_RUN, capture, result, machine
    )


def test_every_version_is_covered():
    assert len(PROGRAMS) == 14
    assert set(DIN_SHA256) == set(PROGRAMS)
    assert set(STREAM_SHA256) == set(PROGRAMS) | {R10000_RUN}


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_capture_runs(key):
    capture = run_capture(PROGRAMS[key](), MACHINE)
    forks = sum(len(package.all_records) for package in capture.packages)
    assert (forks > 0) == key.split(":")[1].startswith("threaded")


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_din_export_writes_every_data_reference(exports, key):
    text, result, _ = exports[key]
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


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_stored_stream_is_pinned(exports, key):
    assert array_sha256(exports[key][2]) == STREAM_SHA256[key]


def test_r10000_stream_is_pinned_and_replays(r10000_run):
    machine, live, stored = r10000_run
    assert array_sha256(stored) == STREAM_SHA256[R10000_RUN]
    assert len(stored.shadow_hits) == 0
    assert Simulator(machine).replay(stored).stats == live.stats
