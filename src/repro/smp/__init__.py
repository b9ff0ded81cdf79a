"""SMP extension: locality scheduling on a symmetric multiprocessor.

Section 7 of the paper: "It appears that the idea proposed in this paper
can be extended in a straightforward manner to improve performance on
symmetric multiprocessors, but this remains to be demonstrated."  This
package demonstrates it.

The extension is exactly the straightforward one: the *bin* — already
the unit of locality — becomes the unit of parallel work.  Whole bins
are assigned to processors (never split), so each processor's L2 sees
the same clustered reference stream the uniprocessor scheduler produces,
and bins that share blocks can be kept on the same processor across runs
(cache affinity, cf. Squillante & Lazowska in the paper's related work).

* :class:`SmpMachine` — P copies of a base machine sharing memory.
* :class:`SmpSimulator` / :class:`SmpResult` — per-CPU cache simulation,
  makespan timing, speedup versus the serial schedule, and a
  false-sharing report (L2 lines written from more than one CPU).  One
  trace recorder serves every CPU, retargeted at the running CPU's
  hierarchy; :mod:`repro.smp.ledger` observes it to book instructions
  and written lines per CPU.
* :mod:`repro.smp.assign` — bin-to-CPU policies: round-robin, contiguous
  chunks, load-balanced (LPT), and affinity hashing.
"""

from repro.smp.assign import ASSIGNMENT_POLICIES, affinity_hash, chunked, lpt_balance, round_robin
from repro.smp.engine import SmpResult, SmpSimulator
from repro.smp.machine import SmpMachine

__all__ = [
    "ASSIGNMENT_POLICIES",
    "affinity_hash",
    "chunked",
    "lpt_balance",
    "round_robin",
    "SmpResult",
    "SmpSimulator",
    "SmpMachine",
]
