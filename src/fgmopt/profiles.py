"""Volume-fraction gradation profiles for two-phase graded plates.

A 1D profile is a piecewise-linear ceramic volume fraction over ``n`` equal
segments: node 0 is pinned at 0 (pure metal), and successive nodal values
follow the bounded-ratio recursion

    phi[i+1] = min(1, a[i] * phi[i]),    a[i] ~ U[1, alpha_up],

where ``alpha_up`` is itself drawn once per profile from [1, ALPHA_UPPER_MAX].
The first nodal value is drawn from one of its axis's buckets (chosen with
equal probability) so that very small starting fractions are as likely as
moderate ones; the buckets are the constants FIRST_NODE_BUCKETS_X and
FIRST_NODE_BUCKETS_Y.  If the last node ends below 1, nodes 1..n are rescaled
by 1/phi[n].  Every ratio is at least 1, so every profile is monotone
non-decreasing by construction, graded from metal to ceramic.

This module is the only home of that design space.  Its sizes come from the
plate: on nx-by-ny elements the axis profiles have nx + 1 and ny + 1 nodes,
and a design is one read-only float64 vector of nx + ny genes,

    [phi_x1, phi_y1, nx - 1 x-ratios, ny - 1 y-ratios],

which ``generate_genes`` draws, ``genes_from_dict`` reads and
``genes_to_dict`` writes.  ``genes_to_profiles`` decodes it into the two
axis profiles, plain arrays of nodal values.

A 2D profile is a float array, the ceramic fraction on the plate's
(nx+1) x (ny+1) element vertices, bilinear within each element; a design's is
the tensor product of its two axis profiles.  It carries no geometry:
``interpolate`` evaluates it in an L x H plate, and the solver checks it
where it samples it, in ``ThermoelasticSolver.phi_at_gauss``.

Power-law profiles (x/L)**m are a subset of this design space: they are the
recursion from phi[1] = (1/n)**m with ratios ((i+1)/i)**m.  The gene bounds
admit them while the first ratio 2**m stays within ALPHA_UPPER_MAX and
(1/n)**m within the span of the first-node buckets.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, GeneOutOfBounds, OutOfDomain, PhiOutOfRange, is_number
from .rng import make_rng

BOUND_TOL = 1e-9  # admitted distance of a gene from its bounds and of a fraction from [0, 1]
ALPHA_UPPER_MAX = 3.0  # largest ratio a profile can draw, and the ratio genes' upper bound
# first-node buckets, each drawn with equal probability: one wide bucket along x, two small along y
FIRST_NODE_BUCKETS_X = ((0.001, 1.0),)
FIRST_NODE_BUCKETS_Y = ((0.001, 0.01), (0.01, 0.1))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def gene_bounds(nx: int, ny: int):
    """Per-gene [lo, hi] in gene-vector order on a plate of nx-by-ny elements; read-only.

    First-node genes are bounded by the span of their axis's buckets; ratio
    genes by [1, ALPHA_UPPER_MAX] (the full per-profile ratio range).
    """
    (xlo, xhi), (ylo, yhi) = ((min(lo for lo, _ in b), max(hi for _, hi in b))
                              for b in (FIRST_NODE_BUCKETS_X, FIRST_NODE_BUCKETS_Y))
    n_ratios = nx + ny - 2
    lower = np.concatenate(([xlo, ylo], np.full(n_ratios, 1.0)))
    upper = np.concatenate(([xhi, yhi], np.full(n_ratios, ALPHA_UPPER_MAX)))
    return _read_only(lower), _read_only(upper)


@functools.cache
def _tolerant_bounds(nx: int, ny: int):
    """``gene_bounds`` widened by BOUND_TOL: the interval ``genes_to_profiles`` admits."""
    lower, upper = gene_bounds(nx, ny)
    return _read_only(lower - BOUND_TOL), _read_only(upper + BOUND_TOL)


def genes_from_dict(d, nx: int, ny: int) -> np.ndarray:
    """The gene vector of ``genes_to_dict`` output for a plate of nx-by-ny elements.

    Raises KeyError for a missing key, ValueError naming the key unless ``d`` is a
    dict whose four keys hold JSON numbers (float() and numpy would also read "0.5"
    and true), and DimensionMismatch unless it holds nx - 1 x-ratios and ny - 1 y-ratios.
    """
    if not isinstance(d, dict):
        raise ValueError(f"genes must be a JSON object, got {type(d).__name__}")
    phi_x1, phi_y1, ax, ay = (_gene(d, k) for k in ("phi_x1", "phi_y1", "alphas_x", "alphas_y"))
    if (ax.shape, ay.shape) != ((nx - 1,), (ny - 1,)):
        raise DimensionMismatch(
            f"genes have {ax.size} x-ratios and {ay.size} y-ratios, "
            f"a {nx} x {ny} element plate takes {nx - 1} and {ny - 1}")
    return _read_only(np.concatenate(([phi_x1, phi_y1], ax, ay)))


def _gene(d: dict, key: str):
    """``d[key]`` as a float, or a float array for a ratio list; ValueError names the key."""
    value = d[key]
    if key.startswith("alphas"):  # a JSON list of numbers, or a caller's array
        if isinstance(value, np.ndarray) or isinstance(value, list) and all(map(is_number, value)):
            return np.asarray(value, dtype=float)
    elif is_number(value):
        return float(value)
    raise ValueError(f"genes must be numbers, got {key}: {value!r}")


def genes_to_dict(genes: np.ndarray, nx: int) -> dict:
    """The JSON form of the gene vector of a plate nx elements wide."""
    return {"phi_x1": float(genes[0]), "phi_y1": float(genes[1]),
            "alphas_x": genes[2 : nx + 1].tolist(), "alphas_y": genes[nx + 1 :].tolist()}


def _draw_axis(rng: np.random.Generator, n_elems: int, buckets):
    """One axis worth of genes: (phi1, alphas). Draw order is part of the contract."""
    alpha_up = rng.uniform(1.0, ALPHA_UPPER_MAX)
    lo, hi = buckets[rng.integers(len(buckets))]
    phi1 = rng.uniform(lo, hi)
    return phi1, rng.uniform(1.0, alpha_up, size=n_elems - 1)


def _running_product(out: np.ndarray, phi1: float, alphas: np.ndarray) -> np.ndarray:
    """The bounded-ratio recursion from fixed ratios into ``out`` (alphas.size + 2
    entries), before its cap at 1; deterministic.

    With every ratio at least 1, phi[i+1] = min(1, a[i] * phi[i]) is the
    running product capped at 1: a product that reaches 1 never falls back
    below it, so capping nodes 2..n of this result is bit-identical to the
    recursion.  A ratio admitted within BOUND_TOL below 1 is taken as 1, so
    every admitted gene vector decodes.  A last node below 1 rescales nodes
    1..n by 1/phi[n]; the products are then all below 1, so the cap leaves
    them alone and may come after the rescaling.
    """
    out[0], out[1] = 0.0, phi1
    np.maximum(alphas, 1.0, out=out[2:])
    np.multiply.accumulate(out[1:], out=out[1:])
    if out[-1] < 1.0:
        out[1:] /= out[-1]
    return out


def generate_genes(rng, nx: int, ny: int) -> np.ndarray:
    """Draw the gene vector of one 2D profile on a plate of nx-by-ny elements (x axis first)."""
    rng = make_rng(rng)
    phi_x1, alphas_x = _draw_axis(rng, nx, FIRST_NODE_BUCKETS_X)
    phi_y1, alphas_y = _draw_axis(rng, ny, FIRST_NODE_BUCKETS_Y)
    return _read_only(np.concatenate(([phi_x1, phi_y1], alphas_x, alphas_y)))


def genes_to_profiles(genes: np.ndarray, nx: int, ny: int):
    """Deterministically decode a plate's gene vector into its two axis profiles.

    Both running products go into one buffer of (nx + 1) + (ny + 1) nodes, x
    first, which is capped at 1 and range-checked once; the two profiles are
    read-only views of it.  The cap takes a first node admitted within
    BOUND_TOL above 1 to 1, so each axis is bit-identical to running the
    recursion phi[i+1] = min(1, a[i] * phi[i]) one node at a time and
    rescaling by a last node below 1.  Raises DimensionMismatch unless
    ``genes`` has shape (nx + ny,), and GeneOutOfBounds if any gene is outside
    its declared interval.
    """
    if genes.shape != (nx + ny,):
        raise DimensionMismatch(f"a {nx} x {ny} element plate takes a vector of {nx + ny} "
                                f"genes, got shape {genes.shape}")
    lower, upper = _tolerant_bounds(nx, ny)
    within = (genes >= lower) & (genes <= upper)  # NaN is never within
    if not within.all():
        raise GeneOutOfBounds(f"genes {np.flatnonzero(~within).tolist()} outside declared bounds")
    nodes = np.empty(nx + ny + 2)
    _running_product(nodes[: nx + 1], genes[0], genes[2 : nx + 1])
    _running_product(nodes[nx + 1 :], genes[1], genes[nx + 1 :])
    np.minimum(nodes, 1.0, out=nodes)
    if not nodes.min() >= 0.0:  # NaN fails too
        raise PhiOutOfRange("nodal volume fractions must lie in [0, 1]")
    nodes.setflags(write=False)
    return nodes[: nx + 1], nodes[nx + 1 :]


def tensor_product(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The 2D profile of two axis profiles: their outer product on the vertex grid."""
    return np.outer(px, py)


def grid_points(L: float, H: float, nx: int, ny: int) -> np.ndarray:
    """(x, y) of the (nx+1) x (ny+1) profile node grid, x-major.

    Row ``i * (ny + 1) + j`` is node (x_i, y_j), the order of ``grid.ravel()``.
    """
    X, Y = np.meshgrid(np.linspace(0.0, L, nx + 1), np.linspace(0.0, H, ny + 1), indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def bilinear_shape(xi, eta):
    """The four cell shape functions at parametric (xi, eta) in [-1,1]^2.

    Corner order: (-1,-1), (1,-1), (1,1), (-1,1).  They sum to 1 everywhere.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.stack(
        [
            (1 - xi) * (1 - eta) / 4,
            (1 + xi) * (1 - eta) / 4,
            (1 + xi) * (1 + eta) / 4,
            (1 - xi) * (1 + eta) / 4,
        ],
        axis=-1,
    )


def interpolate(grid: np.ndarray, x, y, L: float, H: float):
    """Bilinear interpolation of a profile at (x, y) inside an L x H plate.

    The plate's nx-by-ny elements come from ``grid``'s (nx+1, ny+1) shape; the
    values are not checked here, the solver checks a profile it samples.
    Accepts scalars or equally-shaped arrays; raises OutOfDomain for points
    outside [0,L] x [0,H].
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    x, y = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    tol_x, tol_y = 1e-12 * L, 1e-12 * H
    if np.any(x < -tol_x) or np.any(x > L + tol_x) or np.any(y < -tol_y) or np.any(y > H + tol_y):
        raise OutOfDomain("query point outside the plate domain")
    nx, ny = grid.shape[0] - 1, grid.shape[1] - 1
    hx, hy = L / nx, H / ny
    ix = np.clip((x / hx).astype(int), 0, nx - 1)
    iy = np.clip((y / hy).astype(int), 0, ny - 1)
    xi, eta = 2.0 * (x - ix * hx) / hx - 1.0, 2.0 * (y - iy * hy) / hy - 1.0
    corners = np.stack(
        [grid[ix, iy], grid[ix + 1, iy], grid[ix + 1, iy + 1], grid[ix, iy + 1]],
        axis=-1,
    )
    out = np.einsum("...c,...c->...", bilinear_shape(xi, eta), corners)
    return float(out[0]) if scalar else out


def power_law_profile(n_elems: int, m: float) -> np.ndarray:
    """Nodal values of (x/L)**m; node 0 is pinned at 0 (convention for m = 0).
    A NaN index passes here and fails the solver's range check in ``phi_at_gauss``."""
    if m < 0.0:
        raise ValueError("power-law index must be >= 0")
    values = (np.arange(n_elems + 1, dtype=float) / n_elems) ** m
    values[0] = 0.0
    return values


def _trapezoid_mean(values: np.ndarray) -> float:
    """Mean of the piecewise-linear interpolant of equispaced nodal values."""
    return (values[1:-1].sum() + 0.5 * (values[0] + values[-1])) / (values.size - 1)


def average_ceramic_fraction(px: np.ndarray, py: np.ndarray) -> float:
    """Domain average of the tensor-product field ``tensor_product(px, py)``.

    The bilinear interpolant of an outer product is the product of the two
    piecewise-linear axis interpolants, so its average is the product of the
    two 1D trapezoid means; no 2D grid is formed.  This equals the tensor
    trapezoid rule on the node grid (exact for piecewise bilinear fields) up
    to summation order, a relative difference of a few ulps.
    """
    return float(_trapezoid_mean(px) * _trapezoid_mean(py))


def metal_maximum(values, phi) -> float:
    """Largest of ``values`` where the ceramic fraction ``phi`` is below 1, -inf without metal.

    ``values`` and ``phi`` are equally-shaped, e.g. a temperature field and
    the profile grid it lives on.
    """
    return float(np.max(values, where=np.asarray(phi) < 1.0, initial=-np.inf))
