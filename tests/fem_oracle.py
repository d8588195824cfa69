"""Reference constructions for the FEM tests: the profile grid's coordinates, and a
field's reduced sparse pattern, one key per dof pair.

``grid_points`` lays the profile grid out by its own linspace, independent of
the mesh, where ``fem.Mesh.vertex_nodes`` reads it from the mesh nodes.

Every entry (r, c) of the per-row element matrices gets the column-major key
c * nf + r on dof positions (free dofs first, in the given order, then the
fixed ones), or n * nf when its row is fixed; ``np.unique`` over all keys
gives the CSC patterns of K[free][:, free] and K[free][:, fixed] and each
entry's slot.  ``fem._ReducedPattern`` builds the same arrays from node pairs.
"""

import numpy as np


def grid_points(L, H, nx, ny):
    """(x, y) of the (nx+1) x (ny+1) profile node grid, x-major: row ``i * (ny + 1) + j``
    is node (x_i, y_j), the order of ``grid.ravel()``."""
    X, Y = np.meshgrid(np.linspace(0.0, L, nx + 1), np.linspace(0.0, H, ny + 1), indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def _entry_keys(p, nf, n):
    rows, cols = p[:, :, None], p[:, None, :]
    return np.where(rows < nf, cols * nf + rows, n * nf).ravel()


def dof_pattern(idx, fixed, free, const=None):
    """(slot, rows, ptr, base) of the element matrices on dof rows ``idx``, with the
    free dofs numbered in the order of ``free``; ``const = (dof ids, matrices)``."""
    nf, n = free.size, free.size + fixed.size
    pos = np.empty(n, dtype=np.int64)
    pos[free] = np.arange(nf)
    pos[fixed] = nf + np.arange(fixed.size)
    blocks = [idx] if const is None else [idx, const[0]]
    keys, slot = np.unique(np.concatenate([_entry_keys(pos[b], nf, n) for b in blocks]),
                           return_inverse=True)
    n_elem = idx.size * idx.shape[1]
    base = 0.0 if const is None else np.bincount(
        slot[n_elem:], weights=const[1].ravel(), minlength=keys.size)
    return (slot[:n_elem].astype(np.int32), (keys % nf).astype(np.int32),
            np.searchsorted(keys, np.arange(n + 1) * nf).astype(np.int32), base)


def free_in_node_order(rank, fixed, per_node):
    """The dofs not in ``fixed``, by (rank of their node, component)."""
    free = np.delete(np.arange(per_node * rank.size), fixed)
    return free[np.argsort(per_node * rank[free // per_node] + free % per_node)]

