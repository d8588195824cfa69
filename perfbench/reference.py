"""A fixed reference computation that measures how fast the machine is right now.

On a shared host the same round can take 1.7 times longer in one minute than
in the next, because neighbours load the cores and caches.  run.py times this
kernel before, between and after the stages of each round, and reports each
stage's time in units of the kernel's time next to it, which cancels most of
that drift.  Set-up probes are scaled the same way, to seconds at the kernel's
NOMINAL_S.  The kernel uses only Python, numpy and scipy, never fgmopt, so no
change to the program can move it.  It mixes the three kinds of work the
program does: interpreted Python, small dense numpy operations and a sparse
LU factorization.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the kernel's time on an unloaded 2-vCPU Xeon VM; set-up times are scaled to it
NOMINAL_S = 0.040

_DENSE = np.random.default_rng(0).random((200, 200))
_GRID = 60
_LAPLACE_1D = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
_LAPLACE = (sp.kron(_LAPLACE_1D, sp.eye(_GRID)) + sp.kron(sp.eye(_GRID), _LAPLACE_1D)).tocsc()
_RHS = np.ones(_GRID * _GRID)


def _python_loop() -> int:
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def _dense_ops() -> float:
    total = 0.0
    for _ in range(20):
        total += np.linalg.solve(_DENSE, _DENSE[0]).sum() + (_DENSE * _DENSE).sum()
    return total


def _sparse_lu() -> float:
    return float(spla.splu(_LAPLACE).solve(_RHS).sum())


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel (about 40 ms unloaded)."""
    t0 = time.perf_counter()
    _python_loop()
    _dense_ops()
    _sparse_lu()
    return time.perf_counter() - t0
