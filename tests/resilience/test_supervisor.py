"""Unit tests for the ``--jobs`` executor: one process per job.

Worker functions live at module level so they also run under a spawn
start method.  Each one reads its attempt number from the payload
(``payload(job)`` is built per dispatch, after the executor counts the
attempt), which is how the tests script "crash on the first attempt,
succeed on the second" deterministically.
"""

import multiprocessing
import os
import time

from repro.resilience.faults import WORKER_CRASH_EXIT
from repro.resilience.parallel import Job, run_jobs, stop_beats


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def echo_worker(payload):
    time.sleep(payload.get("nap", 0.0))
    return payload["value"]


def crashy_worker(payload):
    """Dies outright while payload says so — a segfault stand-in."""
    if payload["attempt"] <= payload["crash_until"]:
        os._exit(WORKER_CRASH_EXIT)
    return payload["value"]


def raising_worker(payload):
    raise ValueError(f"task exploded on {payload['value']}")


def stalling_worker(payload):
    """First attempt wedges with its beats stopped (so the parent's stall
    check must SIGKILL it); later attempts succeed."""
    if payload["attempt"] == 1:
        stop_beats()
        time.sleep(15)  # killed long before this elapses
    return payload["value"]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def jobs_named(*names):
    return [Job(index=i + 1, experiment_id=name) for i, name in enumerate(names)]


def payload_for(job, **extra):
    return {"value": job.experiment_id, "attempt": job.attempts, **extra}


def run(worker, names, payload=payload_for, max_jobs=1, max_crashes=2, **kwargs):
    """Every outcome as ``(name, kind, value)``, and every death."""
    crashes = []
    outcomes = run_jobs(
        jobs_named(*names),
        worker,
        payload,
        max_jobs=max_jobs,
        max_crashes=max_crashes,
        on_crash=lambda job, kind: crashes.append((job.experiment_id, kind)),
        **kwargs,
    )
    return [(job.experiment_id, kind, value) for job, kind, value in outcomes], crashes


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_all_jobs_reach_ok_outcomes(self):
        outcomes, crashes = run(echo_worker, "abcd", max_jobs=2)
        # Yielded in plan order, whatever order the processes finished in.
        assert outcomes == [
            ("a", "ok", "a"), ("b", "ok", "b"), ("c", "ok", "c"), ("d", "ok", "d")
        ]
        assert crashes == []

    def test_at_most_jobs_processes_alive(self):
        alive = []

        def payload(job):
            # Built right before the job's process starts.
            alive.append(len(multiprocessing.active_children()))
            return payload_for(job, nap=0.05)

        outcomes, _ = run(
            echo_worker, [f"e{i}" for i in range(10)], payload, max_jobs=3
        )
        assert len(outcomes) == 10
        assert max(alive) + 1 <= 3  # counting the one about to start

    def test_task_exception_reported_not_fatal(self):
        outcomes, crashes = run(raising_worker, ["x"])
        (name, kind, (exc, text)), = outcomes
        assert (name, kind) == ("x", "failed")
        assert isinstance(exc, ValueError) and "task exploded" in str(exc)
        assert "Traceback" in text and "raising_worker" in text
        assert crashes == []

    def test_abort_stops_dispatch(self):
        started = []

        def payload(job):
            started.append(job.experiment_id)
            return payload_for(job)

        outcomes = run_jobs(
            jobs_named("a", "b", "c"), echo_worker, payload,
            max_jobs=1, max_crashes=2,
        )
        first = next(outcomes)
        outcomes.close()  # the consumer stops: nothing more is dispatched
        assert first[0].experiment_id == "a"
        assert started == ["a"]
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Crash recovery and quarantine
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_single_crash_recovers_on_resubmit(self):
        outcomes, crashes = run(
            crashy_worker, ["a"], lambda job: payload_for(job, crash_until=1),
            max_crashes=3,
        )
        assert outcomes == [("a", "ok", "a")]
        assert crashes == [("a", "crash")]

    def test_poison_job_quarantined_at_bound(self):
        outcomes, crashes = run(
            crashy_worker, ["poison"], lambda job: payload_for(job, crash_until=99)
        )
        assert outcomes == [("poison", "quarantined", "crash")]
        assert crashes == [("poison", "crash"), ("poison", "crash")]

    def test_innocent_jobs_survive_a_pool_break(self):
        # One poison job amidst healthy ones running beside it: only the
        # poison job's own deaths are charged.
        outcomes, crashes = run(
            crashy_worker,
            ["ok1", "poison", "ok2", "ok3", "ok4"],
            lambda job: payload_for(
                job, crash_until=99 if job.experiment_id == "poison" else 0
            ),
            max_jobs=2,
        )
        assert {name: kind for name, kind, _ in outcomes} == {
            "ok1": "ok", "ok2": "ok", "ok3": "ok", "ok4": "ok",
            "poison": "quarantined",
        }
        assert crashes == [("poison", "crash"), ("poison", "crash")]

    def test_stall_detected_killed_and_recovered(self):
        outcomes, crashes = run(
            stalling_worker, ["wedged"], max_crashes=3, stall_timeout_s=0.4
        )
        assert outcomes == [("wedged", "ok", "wedged")]
        assert crashes == [("wedged", "stall")]
