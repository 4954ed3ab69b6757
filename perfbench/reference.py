"""A fixed reference work, and a helper process that times it on request.

The benchmark's host runs code up to twice as slow when its neighbours
are busy, for minutes at a time.  ``run.py`` therefore times this work,
which never changes, before the first pass and after every pass, and
reports each timing also scaled by ``REFERENCE_S`` over the median of
those times: as it would read at the speed at which the reference work
takes ``REFERENCE_S``.

The work runs in processes forked from a helper started with a fresh
interpreter, not from the benchmark itself: they then share none of the
benchmark's memory, and as the benchmark reads its children's peak RSS
before it waits for the helper, they never count towards it.

Protocol (text lines): the helper reads ``<procs>`` and answers with the
mean CPU seconds that many processes, run side by side, took for the
work; it exits at end of input.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: CPU seconds one process takes for ``work`` on a 2-vCPU Xeon (Sapphire
#: Rapids) VM when its host is quiet
REFERENCE_S = 0.25


def work() -> None:
    """Fixed CPU work in the program's three modes, in about equal parts:
    an interpreter loop, Python objects built, sorted and grouped, and
    NumPy kernels over an array larger than L2."""
    import numpy as np

    s = 0
    for i in range(300_000):
        s += i * i
    rows = sorted((i * 7919 % 100_003, i % 10, str(i)) for i in range(75_000))
    groups: dict[int, list] = {}
    for t, server, _ in rows:
        groups.setdefault(server, []).append(t)
    x = np.random.default_rng(0).random(1 << 21)
    np.cumsum(np.sort(x)).searchsorted(x[::7])


def side_by_side(procs: int) -> float:
    """Mean CPU seconds of ``work`` in ``procs`` forked processes run at
    once."""
    children = []
    for _ in range(procs):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                c0 = time.process_time()
                work()
                os.write(w, repr(time.process_time() - c0).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        children.append((pid, r))
    out = []
    for pid, r in children:
        with os.fdopen(r) as f:
            text = f.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError("the reference work failed in a child process")
        out.append(float(text))
    return statistics.fmean(out)


class Reference:
    """The helper process; use as a context manager and call
    :meth:`measure`."""

    def __init__(self, procs: int):
        self.procs = procs
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> float:
        """CPU seconds of the reference work right now."""
        self._proc.stdin.write(f"{self.procs}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper exited")
        return float(line)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except BrokenPipeError:   # the helper has already exited
            pass
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    import numpy  # noqa: F401  (imported once, not in every child)

    for line in sys.stdin:
        print(side_by_side(int(line)), flush=True)


if __name__ == "__main__":
    _serve()
