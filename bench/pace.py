"""Host pace: a fixed reference computation timed next to the program.

The benchmark's host is a few shared cores whose speed wanders by up to a
factor of two, in phases of seconds to minutes, with the process never
descheduled: the cores themselves run slower.  Wall times of the same code
then spread by 0.2-0.5 (IQR/median) across runs, wider than any bound a
regression check can use.  So each timed stretch of the program is paired
with timings of ``reference()``, run just before and just after it, and is
reported at the reference pace::

    paced seconds = wall seconds * NOMINAL_S / (mean of the two reference times)

On a host that runs ``reference()`` in ``NOMINAL_S`` the paced time is the
wall time.  The reference uses numpy, scipy and the interpreter only, never
the program, so a change to the program moves the paced time as it moves
the wall time.  It mixes the kinds of work the solver does: an interpreter
loop, ufuncs on small arrays (the kron and 1-d paths), a sparse matvec
(radon), ufuncs on large arrays (the 2-d grad) and a dense matvec (the
sensing matrix), about 8 ms each on the host measured in README.md.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# reference() on a 2-core shared x86-64 host at its usual speed
NOMINAL_S = 0.040

_rng = np.random.default_rng(0)
_SPARSE = sp.csr_matrix((_rng.standard_normal(200000), _rng.integers(0, 20000, (2, 200000))),
                        shape=(20000, 20000))
_VECTOR = _rng.standard_normal(20000)
_SMALL = _rng.standard_normal(128)
_LARGE = _rng.standard_normal(1 << 19)
_DENSE = _rng.standard_normal((250, 1024))
_DENSE_X = _rng.standard_normal(1024)


def reference() -> float:
    """Run the fixed reference computation; return its wall time in s."""
    start = time.perf_counter()
    total = 0
    for i in range(120000):
        total += i * i % 7
    y = _SMALL
    for _ in range(3000):
        y = np.maximum(y * 0.5 + 1.0, 0.0) - 0.25
    y = _VECTOR
    for _ in range(24):
        y = _SPARSE @ y
        y *= 1.0 / np.abs(y).max()
    for _ in range(2):
        np.sqrt(np.abs(_LARGE * 1.0001 + _LARGE))
    for _ in range(150):
        _DENSE @ _DENSE_X
    return time.perf_counter() - start


class PacedClock:
    """Wall time and paced time of one stretch of the program.

    ``start()`` times the reference and starts the clock; ``mark()`` closes
    the segment so far, times the reference again and opens the next one;
    ``stop()`` closes the last segment.  Reference runs fall between
    segments, so neither time includes them.  A segment is paced by the
    mean of the reference times on either side of it.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.paced_s = 0.0
        self._open = 0.0
        self._pace = NOMINAL_S

    def start(self) -> None:
        self._pace = reference()
        self._open = time.perf_counter()

    def elapsed(self) -> float:
        """Wall seconds since the open segment began."""
        return time.perf_counter() - self._open

    def mark(self) -> None:
        segment = self.elapsed()
        pace = reference()
        self.wall_s += segment
        self.paced_s += segment * NOMINAL_S / (0.5 * (self._pace + pace))
        self._pace = pace
        self._open = time.perf_counter()

    def stop(self) -> None:
        self.mark()
