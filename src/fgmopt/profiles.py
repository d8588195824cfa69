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
so a design has nx - 1 x-ratios and ny - 1 y-ratios (``generate_genes``,
``gene_bounds`` and ``genes_from_dict`` take nx and ny).

A 2D field is nodal data on the plate's element vertices: the tensor product
of two independent 1D profiles on the (nx+1) x (ny+1) vertex grid, bilinear
within each element.  It carries no geometry; ``interpolate`` evaluates it
anywhere in an L x H plate.

Power-law profiles (x/L)**m are a subset of this design space: they are the
recursion from phi[1] = (1/n)**m with ratios ((i+1)/i)**m.  The gene bounds
admit them while the first ratio 2**m stays within ALPHA_UPPER_MAX and
(1/n)**m within the span of the first-node buckets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GeneOutOfBounds, OutOfDomain, PhiOutOfRange
from .rng import make_rng

_BOUND_TOL = 1e-9
ALPHA_UPPER_MAX = 3.0  # largest ratio a profile can draw, and the ratio genes' upper bound
# first-node buckets, each drawn with equal probability: one wide bucket along x, two small along y
FIRST_NODE_BUCKETS_X = ((0.001, 1.0),)
FIRST_NODE_BUCKETS_Y = ((0.001, 0.01), (0.01, 0.1))


def _unit_range_copy(values: np.ndarray, what: str) -> np.ndarray:
    """A copy of ``values`` clipped to [0, 1]; raises PhiOutOfRange for a value
    more than _BOUND_TOL outside it, or NaN (which min and max propagate)."""
    lo, hi = values.min(), values.max()
    if not (lo >= -_BOUND_TOL and hi <= 1.0 + _BOUND_TOL):
        raise PhiOutOfRange(f"{what} volume fractions must lie in [0, 1]")
    return np.clip(values, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else values.copy()


def _validated_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("profile needs a 1D vector of at least 2 nodal values")
    if values[0] != 0.0:
        raise PhiOutOfRange("node 0 must be exactly 0")
    return _unit_range_copy(values, "nodal")


@dataclass(frozen=True)
class Profile1D:
    """Nodal ceramic volume fractions at n+1 equispaced nodes; node 0 is 0."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.values))
        self.values.setflags(write=False)

    @classmethod
    def _of_checked(cls, values: np.ndarray) -> "Profile1D":
        """A profile on ``values`` as given, no copy: they already hold its
        invariants and are read-only."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "values", values)
        return profile

    @property
    def n_elems(self) -> int:
        return self.values.size - 1


@dataclass(frozen=True)
class Profile2D:
    """Ceramic volume fraction at the (nx+1) x (ny+1) element vertices of an
    nx-by-ny plate mesh.

    ``grid[i, j]`` is the value at vertex (x_i, y_j).  Within each element the
    field is bilinear.  The plate it is solved on gives the coordinates.
    """

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] < 2 or grid.shape[1] < 2:
            raise ValueError("grid must be at least 2x2")
        object.__setattr__(self, "grid", _unit_range_copy(grid, "grid"))
        self.grid.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.grid.shape[0] - 1

    @property
    def ny(self) -> int:
        return self.grid.shape[1] - 1


@dataclass(frozen=True, eq=False)
class GradationGenes:
    """Design variables of one 2D profile: first-node fractions and ratio vectors.

    ``vector`` holds them flat and read-only, in the order [phi_x1, phi_y1,
    alphas_x..., alphas_y...]; the ratio fields are views of it.  The axis
    sizes give the plate, and with it the bounds ``validate`` checks.
    """

    phi_x1: float
    phi_y1: float
    alphas_x: np.ndarray
    alphas_y: np.ndarray
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):  # an own vector: the caller's arrays stay writeable and apart
        ax, ay = (np.asarray(a, dtype=float) for a in (self.alphas_x, self.alphas_y))
        if ax.ndim != 1 or ay.ndim != 1:
            raise DimensionMismatch("ratio genes must be 1D vectors")
        self._hold(np.concatenate(([self.phi_x1, self.phi_y1], ax, ay)), ax.size)

    def _hold(self, vec: np.ndarray, n_alphas_x: int):
        """Make the fresh array ``vec`` this design's read-only gene vector."""
        vec.setflags(write=False)
        for name, value in (("vector", vec), ("phi_x1", float(vec[0])), ("phi_y1", float(vec[1])),
                            ("alphas_x", vec[2 : 2 + n_alphas_x]),
                            ("alphas_y", vec[2 + n_alphas_x :])):
            object.__setattr__(self, name, value)

    def flatten(self) -> np.ndarray:
        """A writeable copy of ``vector``."""
        return self.vector.copy()

    def validate(self):
        lower, upper = _tolerant_bounds(self.alphas_x.size + 1, self.alphas_y.size + 1)
        within = (self.vector >= lower) & (self.vector <= upper)  # NaN is never within
        if not within.all():
            raise GeneOutOfBounds(f"genes {np.flatnonzero(~within).tolist()} outside declared bounds")

    def replace_vector(self, vec: np.ndarray) -> "GradationGenes":
        """Same axis sizes, new gene values (one copy of ``vec``)."""
        child = object.__new__(GradationGenes)
        child._hold(np.array(vec, dtype=float), self.alphas_x.size)
        return child

    def to_dict(self) -> dict:
        return {
            "phi_x1": self.phi_x1,
            "phi_y1": self.phi_y1,
            "alphas_x": self.alphas_x.tolist(),
            "alphas_y": self.alphas_y.tolist(),
        }


@functools.cache
def gene_bounds(nx: int, ny: int):
    """Per-gene [lo, hi] in flatten order on a plate of nx-by-ny elements; read-only.

    First-node genes are bounded by the span of their axis's buckets; ratio
    genes by [1, ALPHA_UPPER_MAX] (the full per-profile ratio range).
    """
    (xlo, xhi), (ylo, yhi) = ((min(lo for lo, _ in b), max(hi for _, hi in b))
                              for b in (FIRST_NODE_BUCKETS_X, FIRST_NODE_BUCKETS_Y))
    n_ratios = nx + ny - 2
    lower = np.concatenate(([xlo, ylo], np.full(n_ratios, 1.0)))
    upper = np.concatenate(([xhi, yhi], np.full(n_ratios, ALPHA_UPPER_MAX)))
    lower.setflags(write=False)
    upper.setflags(write=False)
    return lower, upper


@functools.cache
def _tolerant_bounds(nx: int, ny: int):
    """``gene_bounds`` widened by _BOUND_TOL: the interval ``validate`` admits."""
    lower, upper = gene_bounds(nx, ny)
    lower, upper = lower - _BOUND_TOL, upper + _BOUND_TOL
    lower.setflags(write=False)
    upper.setflags(write=False)
    return lower, upper


def genes_from_dict(d: dict, nx: int, ny: int) -> GradationGenes:
    """The genes of ``GradationGenes.to_dict`` output for a plate of nx-by-ny elements.

    Raises DimensionMismatch unless there are nx - 1 x-ratios and ny - 1 y-ratios.
    """
    genes = GradationGenes(float(d["phi_x1"]), float(d["phi_y1"]), d["alphas_x"], d["alphas_y"])
    if (genes.alphas_x.shape, genes.alphas_y.shape) != ((nx - 1,), (ny - 1,)):
        raise DimensionMismatch(
            f"genes have {genes.alphas_x.size} x-ratios and {genes.alphas_y.size} y-ratios, "
            f"a {nx} x {ny} element plate takes {nx - 1} and {ny - 1}")
    return genes


def _draw_axis(rng: np.random.Generator, n_elems: int, buckets):
    """One axis worth of genes: (phi1, alphas). Draw order is part of the contract."""
    alpha_up = rng.uniform(1.0, ALPHA_UPPER_MAX)
    lo, hi = buckets[rng.integers(len(buckets))]
    phi1 = rng.uniform(lo, hi)
    alphas = rng.uniform(1.0, alpha_up, size=n_elems - 1)
    return phi1, alphas


def _running_product(out: np.ndarray, phi1: float, alphas: np.ndarray) -> np.ndarray:
    """The bounded-ratio recursion from fixed ratios into ``out`` (alphas.size + 2
    entries), before its cap at 1; deterministic.

    With every ratio at least 1, phi[i+1] = min(1, a[i] * phi[i]) is the
    running product capped at 1: a product that reaches 1 never falls back
    below it, so capping nodes 2..n of this result is bit-identical to the
    recursion.  A ratio within _BOUND_TOL below 1, which ``validate`` admits,
    is taken as 1, so every admitted gene vector decodes.  A last node below 1
    rescales nodes 1..n by 1/phi[n]; the products are then all below 1, so
    the cap leaves them alone and may come after the rescaling.
    """
    out[0], out[1] = 0.0, phi1
    np.maximum(alphas, 1.0, out=out[2:])
    np.multiply.accumulate(out[1:], out=out[1:])
    if out[-1] < 1.0:
        out[1:] /= out[-1]
    return out


def generate_genes(rng, nx: int, ny: int) -> GradationGenes:
    """Draw the genes of one 2D profile on a plate of nx-by-ny elements (x axis first)."""
    rng = make_rng(rng)
    phi_x1, alphas_x = _draw_axis(rng, nx, FIRST_NODE_BUCKETS_X)
    phi_y1, alphas_y = _draw_axis(rng, ny, FIRST_NODE_BUCKETS_Y)
    return GradationGenes(phi_x1, phi_y1, alphas_x, alphas_y)


def genes_to_profiles(genes: GradationGenes):
    """Deterministically decode genes into the pair of 1D axis profiles.

    Both running products go into one buffer of (nx + 1) + (ny + 1) nodes, x
    first, which is capped at 1 and range-checked once; the two profiles are
    read-only views of it.  The cap takes a first node admitted within
    _BOUND_TOL above 1 to 1, as the range check of ``Profile1D`` would, so
    each axis is bit-identical to running the recursion
    phi[i+1] = min(1, a[i] * phi[i]) one node at a time and rescaling by a
    last node below 1.  Raises GeneOutOfBounds if any gene is outside its
    declared interval.
    """
    genes.validate()
    n_x = genes.alphas_x.size + 2
    nodes = np.empty(n_x + genes.alphas_y.size + 2)
    _running_product(nodes[:n_x], genes.phi_x1, genes.alphas_x)
    _running_product(nodes[n_x:], genes.phi_y1, genes.alphas_y)
    np.minimum(nodes, 1.0, out=nodes)
    if not nodes.min() >= 0.0:  # NaN fails too
        raise PhiOutOfRange("nodal volume fractions must lie in [0, 1]")
    nodes.setflags(write=False)
    return Profile1D._of_checked(nodes[:n_x]), Profile1D._of_checked(nodes[n_x:])


def tensor_product(px: Profile1D, py: Profile1D) -> Profile2D:
    """2D field as the outer product of the two axis profiles."""
    return Profile2D(np.outer(px.values, py.values))


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


def interpolate(p: Profile2D, x, y, L: float, H: float):
    """Bilinear interpolation of the vertex grid at (x, y) inside an L x H plate.

    Accepts scalars or equally-shaped arrays; raises OutOfDomain for points
    outside [0,L] x [0,H].
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    x, y = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    tol_x, tol_y = 1e-12 * L, 1e-12 * H
    if np.any(x < -tol_x) or np.any(x > L + tol_x) or np.any(y < -tol_y) or np.any(y > H + tol_y):
        raise OutOfDomain("query point outside the plate domain")
    hx, hy = L / p.nx, H / p.ny
    ix = np.clip((x / hx).astype(int), 0, p.nx - 1)
    iy = np.clip((y / hy).astype(int), 0, p.ny - 1)
    xi, eta = 2.0 * (x - ix * hx) / hx - 1.0, 2.0 * (y - iy * hy) / hy - 1.0
    corners = np.stack(
        [p.grid[ix, iy], p.grid[ix + 1, iy], p.grid[ix + 1, iy + 1], p.grid[ix, iy + 1]],
        axis=-1,
    )
    out = np.einsum("...c,...c->...", bilinear_shape(xi, eta), corners)
    return float(out[0]) if scalar else out


def power_law_profile(n_elems: int, m: float) -> Profile1D:
    """Nodal values of (x/L)**m; node 0 is pinned at 0 (convention for m = 0)."""
    if m < 0.0:
        raise ValueError("power-law index must be >= 0")
    i = np.arange(n_elems + 1, dtype=float)
    values = (i / n_elems) ** m
    values[0] = 0.0
    return Profile1D(values)


def _trapezoid_mean(values: np.ndarray) -> float:
    """Mean of the piecewise-linear interpolant of equispaced nodal values."""
    return (values[1:-1].sum() + 0.5 * (values[0] + values[-1])) / (values.size - 1)


def average_ceramic_fraction(px: Profile1D, py: Profile1D) -> float:
    """Domain average of the tensor-product field ``tensor_product(px, py)``.

    The bilinear interpolant of an outer product is the product of the two
    piecewise-linear axis interpolants, so its average is the product of the
    two 1D trapezoid means; no 2D grid is formed.  This equals the tensor
    trapezoid rule on the node grid (exact for piecewise bilinear fields) up
    to summation order, a relative difference of a few ulps.
    """
    return float(_trapezoid_mean(px.values) * _trapezoid_mean(py.values))


def metal_maximum(values, phi) -> float:
    """Largest of ``values`` where the ceramic fraction ``phi`` is below 1, -inf without metal.

    ``values`` and ``phi`` are equally-shaped, e.g. a temperature field and
    the profile grid it lives on.
    """
    return float(np.max(values, where=np.asarray(phi) < 1.0, initial=-np.inf))
