"""2D thermoelastic finite elements on structured 9-node quadrilateral meshes.

One-way coupled analysis of a rectangular two-phase graded plate: a linear
steady heat-conduction solve (Dirichlet / convection / adiabatic edge
conditions) followed by a linear elastic solve with the temperature field
entering as an initial-stress load.  A profile is the (nx+1, ny+1) array of
the volume fraction at the element vertices, so each element is one bilinear
cell of it; ``phi_at_gauss``, where every solve samples it, checks it.
Point properties come from the rule of mixtures at the 3x3 Gauss points of
every element, where that bilinear field is sampled independently of the
biquadratic displacement and temperature interpolation.  Temperatures are
reported on the same vertex grid, as the nodal values there.

Conventions
-----------
* temperatures are changes relative to the stress-free reference state;
* the volume fraction ``phi`` is the ceramic fraction, metal is ``1 - phi``;
* both phases of a pair share one Poisson ratio nu, so Young's modulus E is
  the only blended elastic modulus: each field's element matrices are one
  Gauss-point modulus (E, or the conductivity k) times one constant table;
* engineering shear strain, stress vector (s_xx, s_yy, t_xy);
* plane strain uses the 3D Lame constants and beta = E*alpha/(1-2nu);
  plane stress uses lambda* = 2*lambda*mu/(lambda+2mu) and
  beta = E*alpha/(1-nu);
* effective stress is the von Mises invariant of the in-plane physical
  stress with sigma_zz taken as zero, in both modes; this reproduces the
  published reference values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, PhiOutOfRange, SingularSystem
from .profiles import BOUND_TOL, bilinear_shape, grid_points, metal_maximum

EDGES = ("left", "right", "bottom", "top")
CORNERS = {
    "bottom_left": (0.0, 0.0),
    "bottom_right": (1.0, 0.0),
    "top_left": (0.0, 1.0),
    "top_right": (1.0, 1.0),
}
RESIDUAL_TOL = 1e-10
_ASSEMBLY_CHUNK = 1 << 16  # entries of the element matrices built at a time


# ---------------------------------------------------------------------------
# materials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseProperties:
    """Isotropic phase: Young's modulus [Pa], Poisson ratio, thermal expansion
    [1/K], conductivity [W/m/K]; the thermoelastic steady state needs no more."""

    E: float
    nu: float
    alpha: float
    k: float

    def __post_init__(self):
        if self.E <= 0 or not (0.0 <= self.nu < 0.5) or self.k <= 0:
            raise ValueError("phase properties out of physical range")


@dataclass(frozen=True)
class MaterialPair:
    """Two phases of one Poisson ratio, blended by the rule of mixtures."""

    metal: PhaseProperties
    ceramic: PhaseProperties

    def __post_init__(self):
        if self.metal.nu != self.ceramic.nu:
            raise ValueError(f"the phases of a pair need one Poisson ratio, got metal "
                             f"{self.metal.nu!r} and ceramic {self.ceramic.nu!r}")

    def blend(self, name: str, phi):
        """Property ``name`` of PhaseProperties at ceramic fraction ``phi``, a number or
        an array in [0, 1]: P = P_m (1 - phi) + P_c phi."""
        return getattr(self.metal, name) * (1.0 - phi) + getattr(self.ceramic, name) * phi


MATERIALS = {
    "Ni/Al2O3": MaterialPair(
        metal=PhaseProperties(E=199.5e9, nu=0.3, alpha=15.4e-6, k=60.7),
        ceramic=PhaseProperties(E=393.0e9, nu=0.3, alpha=7.4e-6, k=30.0),
    ),
    "Al/ZrO2": MaterialPair(
        metal=PhaseProperties(E=70.0e9, nu=0.3, alpha=23.4e-6, k=233.0),
        ceramic=PhaseProperties(E=200.0e9, nu=0.3, alpha=10.0e-6, k=2.2),
    ),
    # the aluminum/zirconia data of the classic benchmark this plate problem
    # descends from; the published reference stresses were computed with it
    "Al/ZrO2-legacy": MaterialPair(
        metal=PhaseProperties(E=70.0e9, nu=0.3, alpha=23.4e-6, k=204.0),
        ceramic=PhaseProperties(E=151.0e9, nu=0.3, alpha=10.0e-6, k=2.09),
    ),
}


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dirichlet:
    """Prescribed temperature on an edge; value is a number or f(x, y)."""

    value: object = 0.0


@dataclass(frozen=True)
class Convection:
    """Convective exchange q_out = h (theta - theta_inf) on an edge."""

    h: float
    t_inf: float = 0.0


@dataclass(frozen=True)
class Adiabatic:
    pass


@dataclass(frozen=True)
class ThermalBCSet:
    """Exactly one condition per edge (left/right/bottom/top)."""

    left: object = Adiabatic()
    right: object = Adiabatic()
    bottom: object = Adiabatic()
    top: object = Adiabatic()

    def on(self, edge: str):
        return getattr(self, edge)


@dataclass(frozen=True)
class EdgeConstraint:
    edge: str
    component: str  # "u1" | "u2"
    value: object = 0.0  # number or f(x, y)


@dataclass(frozen=True)
class PointConstraint:
    """Zero displacement of one component at a corner node."""

    corner: str  # key of CORNERS
    component: str


@dataclass(frozen=True)
class EdgeTraction:
    edge: str
    tx: float = 0.0
    ty: float = 0.0


@dataclass(frozen=True)
class MechBCSet:
    """Displacement constraints and edge tractions.

    Defaults are traction-free.  The constraints must remove the three
    rigid-body modes: they do exactly when u1 is fixed somewhere, u2 is fixed
    somewhere, and either u1 is fixed at two heights or u2 at two abscissae.
    ``solve_elastic`` raises SingularSystem otherwise.
    """

    edges: tuple[EdgeConstraint, ...] = ()
    points: tuple[PointConstraint, ...] = ()
    tractions: tuple[EdgeTraction, ...] = ()


# ---------------------------------------------------------------------------
# problem configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemConfig:
    L: float
    H: float
    nx: int
    ny: int
    materials: MaterialPair
    mech: MechBCSet
    thermal: ThermalBCSet | None = None
    mode: str = "plane_strain"
    uniform_delta_theta: float | None = None
    heat_source: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.mode not in ("plane_strain", "plane_stress"):
            raise ValueError("mode must be plane_strain or plane_stress")
        if (self.thermal is None) == (self.uniform_delta_theta is None):
            raise ValueError("need exactly one of thermal BCs and a uniform temperature change")
        if self.L <= 0 or self.H <= 0 or self.nx < 1 or self.ny < 1:
            raise ValueError("bad geometry or mesh density")


# ---------------------------------------------------------------------------
# mesh and basis
# ---------------------------------------------------------------------------

def _lagrange_quadratic(t):
    """1D quadratic Lagrange values and derivatives at nodes t = -1, 0, 1.

    For an array ``t`` the node index is the last axis: (*t.shape, 3).
    """
    vals = np.stack([t * (t - 1.0) / 2.0, 1.0 - t * t, t * (t + 1.0) / 2.0], axis=-1)
    ders = np.stack([t - 0.5, -2.0 * t, t + 0.5], axis=-1)
    return vals, ders


def shape9(xi, eta):
    """Biquadratic shape functions and parametric derivatives at (xi, eta).

    Local node a = 3*j + i corresponds to (xi_i, eta_j) with xi_i, eta_j in
    (-1, 0, 1); for points of any common shape returns (N, dN_dxi, dN_deta),
    each (*shape, 9).
    """
    lx, dlx = _lagrange_quadratic(np.asarray(xi, dtype=float))
    ly, dly = _lagrange_quadratic(np.asarray(eta, dtype=float))

    def outer(y, x):  # y_j * x_i at node 3*j + i
        p = y[..., :, None] * x[..., None, :]
        return p.reshape(p.shape[:-2] + (9,))

    return outer(ly, lx), outer(ly, dlx), outer(dly, lx)


# the 3-point Gauss rule on [-1, 1], and the element's 3x3 product rule built from it:
# point g = 3*j + i at (xi_i, eta_j) with weight w_i * w_j
GAUSS_T = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
GAUSS_W = np.array([5.0, 8.0, 5.0]) / 9.0
GAUSS_XI, GAUSS_ETA = np.tile(GAUSS_T, 3), np.repeat(GAUSS_T, 3)
GAUSS_W9 = np.tile(GAUSS_W, 3) * np.repeat(GAUSS_W, 3)


@dataclass(frozen=True)
class Mesh:
    """Uniform nx-by-ny grid of 9-node quadrilaterals over [0,L] x [0,H]."""

    nx: int
    ny: int
    L: float
    H: float
    coords: np.ndarray = field(repr=False)  # (n_nodes, 2)
    conn: np.ndarray = field(repr=False)  # (n_elems, 9) global node ids

    @classmethod
    def rectangle(cls, nx: int, ny: int, L: float, H: float) -> "Mesh":
        NX, NY = 2 * nx + 1, 2 * ny + 1
        xs = np.linspace(0.0, L, NX)
        ys = np.linspace(0.0, H, NY)
        X, Y = np.meshgrid(xs, ys, indexing="xy")  # node id = iy*NX + ix
        coords = np.column_stack([X.ravel(), Y.ravel()])
        # element e = ey*nx + ex, local node a = 3*jl + il -> (2*ey + jl)*NX + 2*ex + il
        first = (2 * NX * np.arange(ny, dtype=np.int64)[:, None] + 2 * np.arange(nx)).ravel()
        conn = first[:, None] + (NX * np.arange(3, dtype=np.int64)[:, None] + np.arange(3)).ravel()
        return cls(nx=nx, ny=ny, L=L, H=H, coords=coords, conn=conn)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.conn.shape[0]

    def edge_nodes(self, edge: str) -> np.ndarray:
        """Sorted ids of every node on an edge."""
        return np.unique(self.edge_conn(edge)[0])

    def edge_conn(self, edge: str):
        """(n_edge_elems, 3) node ids along an edge, and half the element edge length."""
        left, bottom = np.arange(self.ny) * self.nx, np.arange(self.nx)  # element column, row
        table = {
            "left": (left, [0, 3, 6], self.H / self.ny),
            "right": (left + (self.nx - 1), [2, 5, 8], self.H / self.ny),
            "bottom": (bottom, [0, 1, 2], self.L / self.nx),
            "top": ((self.ny - 1) * self.nx + bottom, [6, 7, 8], self.L / self.nx),
        }
        if edge not in table:
            raise ValueError(f"unknown edge {edge!r}")
        elems, locs, h = table[edge]
        return self.conn[np.ix_(elems, locs)], h / 2.0

    def gauss_points(self) -> np.ndarray:
        """Physical coordinates (n_elems, 9, 2) of each element's 3x3 Gauss points,
        point g at parametric (GAUSS_XI[g], GAUSS_ETA[g])."""
        hx, hy = self.L / self.nx, self.H / self.ny
        centers_x = np.tile(np.arange(self.nx) * hx + hx / 2.0, self.ny)
        centers_y = np.repeat(np.arange(self.ny) * hy + hy / 2.0, self.nx)
        gx = centers_x[:, None] + GAUSS_XI[None, :] * hx / 2.0
        gy = centers_y[:, None] + GAUSS_ETA[None, :] * hy / 2.0
        return np.stack([gx, gy], axis=-1)

    def corner_node(self, corner: str) -> int:
        fx, fy = CORNERS[corner]
        ix = int(round(fx * 2 * self.nx))
        iy = int(round(fy * 2 * self.ny))
        return iy * (2 * self.nx + 1) + ix


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class FemResult:
    """Fields and scalar summaries of one thermoelastic solve."""

    mesh: Mesh
    profile: np.ndarray  # (nx+1, ny+1): the caller's array as given, checked by phi_at_gauss
    nodal_temperature: np.ndarray  # (n_nodes,)
    nodal_displacement: np.ndarray  # (n_nodes, 2)
    gauss_effective_stress: np.ndarray  # (n_elems, 9)
    temperature_grid: np.ndarray  # (nx+1, ny+1) at the element vertices, as the profile grid
    sigma_e_max: float
    v_ca: float
    max_metal_temperature: float

    def summary(self) -> dict:
        return {k: getattr(self, k) for k in ("sigma_e_max", "v_ca", "max_metal_temperature")}


def write_result_files(result: FemResult, out_dir) -> None:
    """JSON summary plus (x, y, value) CSV grids for any contour plotter.

    Each CSV holds the bytes csv.writer gives with repr() floats.  Its x/y
    text comes from ``_csv_template`` of the mesh geometry (the solver's
    nodes, Gauss points and profile grid are functions of it), so only the
    values are formatted here.
    """
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(result.summary(), indent=2, sort_keys=True))
    m = result.mesh
    for name, points, values in (("temperature.csv", "nodes", result.nodal_temperature),
                                 ("effective_stress.csv", "gauss", result.gauss_effective_stress),
                                 ("volume_fraction.csv", "grid", result.profile)):
        text = _csv_template(points, m.L, m.H, m.nx, m.ny) % tuple(np.ravel(values).tolist())
        (out / name).write_text(text, newline="")


@functools.lru_cache(maxsize=8)
def _csv_template(points: str, L: float, H: float, nx: int, ny: int) -> str:
    """``x,y,value`` CSV text at the nodes, the Gauss points or the element
    vertices (the profile grid, x-major) of the nx-by-ny mesh over [0,L] x [0,H],
    with a ``%r`` slot for each value; rows end in CRLF, as csv.writer's do.

    repr() of a float never holds a "%", so the x/y text needs no escaping.
    It is formatted in one pass: a string per row left the allocator's heap
    fragmented and raised the process's peak memory by about 1.7 MB on problem 1.
    """
    if points == "grid":
        xy = grid_points(L, H, nx, ny)
    else:
        mesh = Mesh.rectangle(nx, ny, L, H)
        xy = mesh.coords if points == "nodes" else mesh.gauss_points().reshape(-1, 2)
    return "x,y,value\r\n" + ("%r,%r,%%r\r\n" * (xy.size // 2)) % tuple(xy.ravel().tolist())


# ---------------------------------------------------------------------------
# effective stress
# ---------------------------------------------------------------------------

def effective_stress(sxx, syy, sxy):
    """In-plane von Mises stress sqrt(3/2 dev:dev) with sigma_zz = 0.

    Vectorized over equally-shaped component arrays.
    """
    sxx, syy, sxy = (np.asarray(a, dtype=float) for a in (sxx, syy, sxy))
    return np.sqrt(0.5 * ((sxx - syy) ** 2 + syy**2 + sxx**2) + 3.0 * sxy**2)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class ThermoelasticSolver:
    """Assembles and solves the one-way coupled problem for one configuration.

    Boundary conditions are resolved at construction.  Each field (thermal
    only when ``config.thermal`` is set, elastic always) builds its element
    matrices a chunk of elements at a time, from the Gauss-point coefficients
    and one constant table, and adds each chunk into the values of the CSC
    pattern of the reduced SPD system K[free][:, free], which SuperLU factors
    in symmetric mode in the order it is numbered.  That numbering is one
    fill-reducing order of the mesh nodes shared by both fields, a nested
    dissection of the node grid along element edges: thermal dofs follow the
    node rank, elastic dofs (node rank, component).
    Construction builds neither the order nor the patterns: the first solve
    builds and caches them, the order by index arithmetic on the grid and
    each pattern with one sort of its field's node pairs.  On problem 1 that
    adds about 4 ms for the order and 15 ms, with an 8 MiB transient, for the
    elastic pattern, to a warm solve of about 54 ms (median of 15 with one
    BLAS thread, OPENBLAS_NUM_THREADS=1, on a 2-core x86-64 box).
    Otherwise the solver is immutable, and solves on different profiles share
    no mutable state and may run concurrently.  A profile is the array of the
    volume fraction at the mesh's element vertices, so each element is one
    bilinear cell of it: one table of the four corner weights at the nine
    Gauss points, built with the basis, samples every element.
    """

    def __init__(self, config: ProblemConfig):
        self.config = config
        self.mesh = Mesh.rectangle(config.nx, config.ny, config.L, config.H)
        self._build_basis()
        self.elem_dofs = np.stack([2 * self.mesh.conn, 2 * self.mesh.conn + 1], axis=-1).reshape(-1, 18)
        self._resolve_thermal_bcs()
        self._resolve_mech_bcs()

    # -- precomputation ----------------------------------------------------

    def _build_basis(self):
        mesh = self.mesh
        hx, hy = mesh.L / mesh.nx, mesh.H / mesh.ny
        n, dxi, deta = shape9(GAUSS_XI, GAUSS_ETA)  # (9 gauss, 9 nodes) each
        self.gauss_w = GAUSS_W9 * (hx * hy / 4.0)  # (9,), includes |J|
        self.gauss_N = n
        self.gauss_B = B = np.stack([dxi * 2.0 / hx, deta * 2.0 / hy], axis=1)  # (9 gauss, 2, 9 nodes)

        # thermal: M_g = w |J| B^T B, so Ke = sum_g k_eg M_g, one (9 gauss, 81) matmul
        self.therm_M = np.einsum("g,gia,gib->gab", self.gauss_w, B, B).reshape(9, 81)

        # elastic B (9 gauss, 3, 18); dof order (ux0, uy0, ux1, uy1, ...)
        Bel = np.zeros((9, 3, 18))
        Bel[:, 0, 0::2] = B[:, 0]
        Bel[:, 1, 1::2] = B[:, 1]
        Bel[:, 2, 0::2] = B[:, 1]
        Bel[:, 2, 1::2] = B[:, 0]
        self.elast_B = Bel
        # the mode's constitutive matrix D and beta / alpha, per unit Young's modulus
        nu = self.config.materials.metal.nu
        lam, mu = nu / ((1.0 + nu) * (1.0 - 2.0 * nu)), 1.0 / (2.0 * (1.0 + nu))
        if self.config.mode == "plane_stress":
            lam, self.elast_beta = 2.0 * lam * mu / (lam + 2.0 * mu), 1.0 / (1.0 - nu)
        else:
            self.elast_beta = 1.0 / (1.0 - 2.0 * nu)
        self.elast_D = np.array([[lam + 2.0 * mu, lam, 0.0], [lam, lam + 2.0 * mu, 0.0], [0.0, 0.0, mu]])
        # Ke = E_eg @ elast_P, with rows w B^T D B
        self.elast_P = np.einsum("g,gia,ij,gjb->gab", self.gauss_w, Bel, self.elast_D, Bel).reshape(9, 324)
        self.elast_V = np.einsum("g,gia,i->ga", self.gauss_w, Bel, np.array([1.0, 1.0, 0.0]))

        # profile node (i, j) is mesh vertex (2i, 2j): element corners in bilinear_shape's
        # order, as ids into grid.ravel(), and their weights at the Gauss points
        self._phi_weights = bilinear_shape(GAUSS_XI, GAUSS_ETA)  # (9 gauss, 4)
        corners, NX = mesh.conn[:, [0, 2, 8, 6]], 2 * mesh.nx + 1
        self._phi_corners = corners % NX // 2 * (mesh.ny + 1) + corners // NX // 2

        # 1D quadratic edge basis at 3-point Gauss, for edge integrals
        self.edge_w = GAUSS_W
        self.edge_N = _lagrange_quadratic(GAUSS_T)[0]  # (3 gauss, 3 nodes)
        self.edge_load = self.edge_w @ self.edge_N  # unit edge load per node, per unit half-length
        self.edge_mass = np.einsum("g,ga,gb->ab", self.edge_w, self.edge_N, self.edge_N)

    def _prescribed(self, entries, per_node: int):
        """(sorted fixed dofs, their values) of a field with per_node dofs a node.

        ``entries`` are (node ids, component, value) with value a number or
        f(x, y); a later entry overrides an earlier one on a shared node.
        """
        fixed = {}
        for nodes, comp, value in entries:
            for nid in nodes:
                x, y = self.mesh.coords[nid]
                fixed[per_node * nid + comp] = value(x, y) if callable(value) else float(value)
        dofs = np.array(sorted(fixed), dtype=np.int64)
        return dofs, np.array([fixed[d] for d in dofs])

    def _resolve_thermal_bcs(self):
        """Dirichlet table, convection matrix entries and the load vector, once per solver."""
        cfg, mesh = self.config, self.mesh
        if cfg.thermal is None:
            return
        bcs = [(e, cfg.thermal.on(e)) for e in EDGES]
        if not any(isinstance(bc, (Dirichlet, Convection)) for _, bc in bcs):
            raise SingularSystem("thermal problem needs a Dirichlet or convection edge")
        # later edges in EDGES order override shared corners
        self.dirichlet_nodes, self.dirichlet_vals = self._prescribed(
            [(mesh.edge_nodes(e), 0, bc.value) for e, bc in bcs if isinstance(bc, Dirichlet)], 1)
        f = np.zeros(mesh.n_nodes)
        if cfg.heat_source != 0.0:
            _scatter_add(f, mesh.conn, cfg.heat_source * (self.gauss_w @ self.gauss_N))
        conv_idx, conv_vals = [np.empty((0, 3), dtype=np.int64)], [np.empty((0, 9))]
        for edge, bc in bcs:
            if isinstance(bc, Convection):
                enodes, half = mesh.edge_conn(edge)
                conv_idx.append(enodes)
                conv_vals.append(np.tile((bc.h * half * self.edge_mass).ravel(), (len(enodes), 1)))
                _scatter_add(f, enodes, bc.h * bc.t_inf * half * self.edge_load)
        self._conv = (np.concatenate(conv_idx), np.concatenate(conv_vals))  # edge nodes, 3x3 matrices
        self._thermal_f = f

    def _resolve_mech_bcs(self):
        """Fixed-displacement table, whether it removes the rigid-body modes, and the
        traction load vector, once per solver."""
        mech, mesh = self.config.mech, self.mesh
        comp = {"u1": 0, "u2": 1}
        entries = [(mesh.edge_nodes(ec.edge), comp[ec.component], ec.value) for ec in mech.edges]
        entries += [([mesh.corner_node(pc.corner)], comp[pc.component], 0.0) for pc in mech.points]
        self.fixed_dofs, self.fixed_vals = self._prescribed(entries, 2)
        # the only rigid motion u1 = a - c y, u2 = b + c x that vanishes at every fixed dof
        # is zero exactly when u1 is fixed at one height or more, u2 at one abscissa or
        # more, and one of the two at two
        xy = mesh.coords[self.fixed_dofs // 2]
        counts = (np.unique(xy[self.fixed_dofs % 2 == 0, 1]).size,  # u1: heights
                  np.unique(xy[self.fixed_dofs % 2 == 1, 0]).size)  # u2: abscissae
        self._rigid_modes_removed = min(counts) >= 1 and max(counts) >= 2
        f = np.zeros(2 * mesh.n_nodes)
        for tr in mech.tractions:
            enodes, half = mesh.edge_conn(tr.edge)
            ft = half * self.edge_load
            _scatter_add(f, 2 * enodes, tr.tx * ft)
            _scatter_add(f, 2 * enodes + 1, tr.ty * ft)
        self._mech_f = f

    @functools.cached_property
    def _node_rank(self) -> np.ndarray:
        """Position of each node in a fill-reducing elimination order of the mesh."""
        return _dissection_rank(self.mesh)

    @functools.cached_property
    def _thermal_pattern(self) -> "_ReducedPattern":
        return _ReducedPattern(self.mesh.conn, 1, self._node_rank, self.dirichlet_nodes,
                               const=self._conv)

    @functools.cached_property
    def _mech_pattern(self) -> "_ReducedPattern":
        return _ReducedPattern(self.mesh.conn, 2, self._node_rank, self.fixed_dofs)

    # -- profile sampling ----------------------------------------------------

    def phi_at_gauss(self, profile: np.ndarray) -> np.ndarray:
        """Ceramic fraction at every Gauss point, (n_elems, 9): one gather of each
        element's corner values times the bilinear weights at the Gauss points.

        Every solve samples its profile here, so here it is checked: raises
        DimensionMismatch unless it has a value at each of the mesh's element
        vertices, and PhiOutOfRange unless each lies within BOUND_TOL of [0, 1].
        Values in the tolerance are sampled clipped into [0, 1], in a copy.
        """
        grid = np.asarray(profile, dtype=float)
        nodes = (self.mesh.nx + 1, self.mesh.ny + 1)
        if grid.shape != nodes:
            raise DimensionMismatch(
                f"profile has {' x '.join(map(str, grid.shape))} nodes, "
                f"the {self.mesh.nx} x {self.mesh.ny} element plate has {nodes[0]} x {nodes[1]}")
        lo, hi = grid.min(), grid.max()
        if not (lo >= -BOUND_TOL and hi <= 1.0 + BOUND_TOL):  # NaN fails too
            raise PhiOutOfRange("profile volume fractions must lie in [0, 1]")
        grid = np.clip(grid, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else grid
        return grid.ravel()[self._phi_corners] @ self._phi_weights.T

    # -- thermal solve -------------------------------------------------------

    def _conductivity(self, profile: np.ndarray) -> np.ndarray:
        """Conductivity at every Gauss point, (n_elems, 9): the element conduction
        matrices, without convection, are this times ``therm_M``."""
        if self.config.thermal is None:
            raise SingularSystem("no thermal boundary conditions configured")
        return self.config.materials.blend("k", self.phi_at_gauss(profile))

    def thermal_system(self, profile: np.ndarray):
        """Full assembled (K, f) with convection terms, before Dirichlet elimination."""
        k = self._conductivity(profile)
        everything = _ReducedPattern(self.mesh.conn, 1, np.arange(self.mesh.n_nodes),
                                     np.empty(0, dtype=np.int64), const=self._conv)
        return everything.assemble(k, self.therm_M)[0], self._thermal_f.copy()

    def solve_thermal(self, profile: np.ndarray) -> np.ndarray:
        """Nodal temperature change field theta-bar."""
        k = self._conductivity(profile)
        return _constrained_solve(self._thermal_pattern, k, self.therm_M, self._thermal_f,
                                  self.dirichlet_vals)

    # -- elastic solve ---------------------------------------------------------

    def _elastic_at_gauss(self, profile: np.ndarray, theta_nodal: np.ndarray):
        """(E, beta * theta) at every Gauss point, each (n_elems, 9): Young's modulus of
        the blended phases, whose products with ``elast_P`` are the element stiffness
        matrices, and the mode's thermal modulus times the temperature change
        interpolated from the nodes."""
        pair, phi = self.config.materials, self.phi_at_gauss(profile)
        E = pair.blend("E", phi)
        beta = self.elast_beta * E * pair.blend("alpha", phi)
        return E, beta * (theta_nodal[self.mesh.conn] @ self.gauss_N.T)

    def solve_elastic(self, profile: np.ndarray, theta_nodal: np.ndarray) -> np.ndarray:
        """Nodal displacements (n_nodes, 2) under thermal + mechanical loads."""
        if not self._rigid_modes_removed:
            raise SingularSystem("displacement constraints leave a rigid-body mode free: fix u1 "
                                 "and u2, and u1 at two heights or u2 at two abscissae")
        E, bt = self._elastic_at_gauss(profile, theta_nodal)
        f = self._mech_f.copy()
        _scatter_add(f, self.elem_dofs, bt @ self.elast_V)
        u = _constrained_solve(self._mech_pattern, E, self.elast_P, f, self.fixed_vals)
        return u.reshape(-1, 2)

    # -- post-processing ---------------------------------------------------

    def gauss_stress(self, profile: np.ndarray, u: np.ndarray, theta_nodal: np.ndarray):
        """In-plane physical stress components and effective stress at Gauss points."""
        E, bt = self._elastic_at_gauss(profile, theta_nodal)
        ue = u.reshape(-1)[self.elem_dofs]  # (n_elems, 18)
        strain = (ue @ self.elast_B.reshape(27, 18).T).reshape(-1, 9, 3)  # (e, g, 3)
        sxx, syy, sxy = np.moveaxis(E[..., None] * (strain @ self.elast_D.T)
                                    - bt[..., None] * np.array([1.0, 1.0, 0.0]), -1, 0)
        se = effective_stress(sxx, syy, sxy)
        return {"sxx": sxx, "syy": syy, "sxy": sxy, "effective": se}

    def temperature_on_profile_grid(self, theta_nodal: np.ndarray) -> np.ndarray:
        """The nodal temperatures at the element vertices, (nx+1, ny+1) as a profile grid."""
        return theta_nodal.reshape(-1, 2 * self.mesh.nx + 1)[::2, ::2].T

    def v_ca(self, profile: np.ndarray) -> float:
        """Domain-average ceramic fraction by the element Gauss rule."""
        phi = self.phi_at_gauss(profile)
        return float((phi * self.gauss_w).sum() / (self.config.L * self.config.H))

    def run(self, profile: np.ndarray) -> FemResult:
        """Thermal (or uniform-change) analysis, elastic analysis, summaries."""
        cfg = self.config
        if cfg.uniform_delta_theta is not None:
            theta = np.full(self.mesh.n_nodes, float(cfg.uniform_delta_theta))
        else:
            theta = self.solve_thermal(profile)
        theta_grid = self.temperature_on_profile_grid(theta)
        u = self.solve_elastic(profile, theta)
        se = self.gauss_stress(profile, u, theta)["effective"]
        return FemResult(
            mesh=self.mesh,
            profile=profile,
            nodal_temperature=theta,
            nodal_displacement=u,
            gauss_effective_stress=se,
            temperature_grid=theta_grid,
            sigma_e_max=float(se.max()),
            v_ca=self.v_ca(profile),
            max_metal_temperature=metal_maximum(theta_grid, profile),
        )


def _scatter_add(f: np.ndarray, idx: np.ndarray, fe: np.ndarray) -> None:
    """f[idx] += fe, with fe one row shared by all rows of idx or one row each."""
    f += np.bincount(idx.ravel(), weights=np.broadcast_to(fe, idx.shape).ravel(),
                     minlength=f.size)


class _ReducedPattern:
    """CSC patterns of K[free][:, free] and K[free][:, fixed] of one field, fixed per solver.

    The field has ``per_node`` dofs a node, dof ``per_node * node + component``.
    ``free`` lists the dofs not in ``fixed`` by (node position in ``rank``,
    component), the order SuperLU factors in; the columns of Kfc follow
    ``fixed``.  The pattern comes from node pairs: the keys (column position,
    row position) of each element's node pairs and of the constant blocks are
    sorted once, and each pair expands into its per_node**2 dof pairs.  All
    dofs of a node share their rows, the free dofs of the node's neighbours,
    so a free row's offset in a column is the running count of free dofs over
    the node column's earlier pairs, plus the free components before it in its
    own node.

    ``slot`` sends each entry of the per-row element matrices on ``conn``, in
    (node, component) dof order, to [Kff.data | Kfc.data | one discard slot
    for the fixed rows], where ``assemble`` adds it.  Constant element
    matrices ``const = (node ids, matrices)``, the convection terms, are
    summed into ``base`` once.
    """

    def __init__(self, conn: np.ndarray, per_node: int, rank: np.ndarray, fixed: np.ndarray,
                 const=None):
        n_nodes, comps = rank.size, np.arange(per_node)
        by_pos = np.argsort(rank)  # the node at each position
        is_free = np.ones((n_nodes, per_node), dtype=bool)
        is_free.flat[fixed] = False
        n_free = is_free.sum(axis=1)
        place = (np.cumsum(is_free, axis=1, dtype=np.int32) - is_free).ravel()
        is_free = is_free.ravel()
        dofs = (per_node * by_pos[:, None] + comps).ravel()
        self.free, self.fixed = dofs[is_free[dofs]], fixed
        free_pos = np.empty(is_free.size, dtype=np.int32)
        free_pos[self.free] = np.arange(self.free.size)

        # node pairs keyed column position * n_nodes + row position, in int64: n_nodes**2
        # overflows int32 beyond 46k nodes
        blocks = [conn] if const is None else [conn, const[0]]
        pos = [rank[b].astype(np.int64) for b in blocks]
        pairs, inv = np.unique(np.concatenate([(q[:, None, :] * n_nodes + q[:, :, None]).ravel()
                                               for q in pos]), return_inverse=True)
        first = np.searchsorted(pairs, np.arange(n_nodes + 1) * n_nodes)  # each column's first pair
        row_node = by_pos[pairs % n_nodes]
        del pairs
        run = np.zeros(row_node.size + 1, dtype=np.int32)  # free rows of the pairs before each
        np.cumsum(n_free[row_node], out=run[1:])
        # where each pair's free rows start within its node column
        offset = run[:-1] - np.repeat(run[first[:-1]], np.diff(first))
        row_dofs = (per_node * row_node[:, None] + comps).ravel()
        row_list = free_pos[row_dofs[is_free[row_dofs]]]  # each node column's free rows, in order
        discard = int(row_list.size < row_dofs.size)
        del row_node, row_dofs

        # dof columns: Kff, then Kfc; every dof of a node takes its node column's rows
        cols = np.concatenate([self.free, fixed])
        node_col = rank[cols // per_node]
        lo = run[first[node_col]]
        count = run[first[node_col + 1]] - lo
        self.ptr = np.zeros(cols.size + 1, dtype=np.int32)
        np.cumsum(count, out=self.ptr[1:])
        nnz = self.ptr[-1]
        at = np.repeat(lo - self.ptr[:-1], count)
        at += np.arange(nnz, dtype=np.int32)
        self.rows = np.concatenate([row_list[at], np.zeros(discard, dtype=np.int32)])
        del at, row_list, run
        col_start = np.empty(is_free.size, dtype=np.int32)
        col_start[cols] = self.ptr[:-1]

        def slots(b, inv_b):
            e, k = b.shape
            d = per_node * b[:, :, None] + comps  # (e, k, per_node) dof ids
            s = np.empty((e, k, per_node, k, per_node), dtype=np.int32)
            np.add(offset[inv_b].reshape(e, k, 1, k, 1), col_start[d][:, None, None], out=s)
            s += place[d][:, :, :, None, None]
            s[np.broadcast_to(~is_free[d][:, :, :, None, None], s.shape)] = nnz
            return s.ravel()

        n_elem = conn.size * conn.shape[1]
        self.slot = slots(conn, inv[:n_elem])
        self.base = 0.0 if const is None else np.bincount(
            slots(const[0], inv[n_elem:]), weights=const[1].ravel(), minlength=self.rows.size)

    def assemble(self, coef: np.ndarray, table: np.ndarray):
        """(Kff, Kfc) from the element matrices ``coef @ table``, one flattened matrix a
        row of ``conn``, by (node, component).

        The matrices are built ``_ASSEMBLY_CHUNK`` entries at a time in one reused
        buffer, so no whole (n_elems, entries) table is held, and each chunk is
        added into the values with ``np.add.at`` over its slice of ``slot``.
        ``np.add.at`` adds in input order, so for given matrices the values are
        bit-identical to one bincount of all of them.
        """
        width = table.shape[1]
        step = max(1, _ASSEMBLY_CHUNK // width)
        buf = np.empty((min(step, len(coef)), width))
        data = np.zeros(self.rows.size)
        for lo in range(0, len(coef), step):
            ke = np.matmul(coef[lo:lo + step], table, out=buf[:len(coef) - lo])
            np.add.at(data, self.slot[lo * width:(lo + step) * width], ke.ravel())
        data += self.base
        nf, p, rows = self.free.size, self.ptr, self.rows
        Kff = sp.csc_matrix((data[:p[nf]], rows[:p[nf]], p[:nf + 1]), shape=(nf, nf))
        Kfc = sp.csc_matrix((data[p[nf]:p[-1]], rows[p[nf]:p[-1]], p[nf:] - p[nf]),
                            shape=(nf, self.fixed.size))
        return Kff, Kfc


def _dissection_rank(mesh: Mesh) -> np.ndarray:
    """Rank of each node in a nested dissection of the (2ny+1) x (2nx+1) node grid.

    An even node row or column lies on element edges, so no element couples
    the nodes on its two sides.  Each block of the grid is split along such a
    line: both halves are numbered first, each the same way, and then the
    line (George, SIAM J. Numer. Anal. 10(2), 1973).  A block that no edge
    line splits is numbered row by row.
    """
    NX = 2 * mesh.nx + 1
    order = []

    def number(rows: range, cols: range):
        # split the longer side (the columns when the sides are equal), else the other,
        # along the even line nearest its middle (the lower of two) with nodes on both sides
        for side in (cols, rows) if len(cols) >= len(rows) else (rows, cols):
            cut = 2 * ((side.start + side.stop) // 4)
            if side.start < cut < side.stop - 1:
                for half in range(side.start, cut), range(cut + 1, side.stop):
                    if side is rows:
                        number(half, cols)
                    else:
                        number(rows, half)
                line = range(cut, cut + 1)
                rows, cols = (line, cols) if side is rows else (rows, line)
                break
        order.extend(NX * r + c for r in rows for c in cols)

    number(range(2 * mesh.ny + 1), range(NX))
    rank = np.empty(mesh.n_nodes, dtype=np.int32)
    rank[order] = np.arange(mesh.n_nodes)
    return rank


def _constrained_solve(pattern: _ReducedPattern, coef: np.ndarray, table: np.ndarray,
                       f: np.ndarray, fixed_vals: np.ndarray) -> np.ndarray:
    """Direct sparse solve with the Dirichlet dofs eliminated symmetrically.

    Kff = K[free][:, free] and the coupling Kfc = K[free][:, fixed] are
    assembled on the solver's precomputed pattern, whose ``free`` already
    lists the dofs in the solver's fill-reducing node order.  Kff is SPD, so
    SuperLU factors it in symmetric mode with no pivoting and no ordering of
    its own; ``x_free`` maps back through ``pattern.free``.  The element
    matrices are ``coef @ table``, which ``pattern.assemble`` builds a chunk
    at a time, so no table of them (4 MiB on problem 1) is held while the
    factor sets the solve's peak memory.
    """
    Kff, Kfc = pattern.assemble(coef, table)
    rhs = f[pattern.free] - Kfc @ fixed_vals
    try:
        # panel_size=24 aborts with glibc's "corrupted size vs. prev_size" on problem 1 (scipy
        # 1.17.1); 4, 8 and 16 took 49-54 ms a solve there against 10's 51-52 ms: no clear gain
        lu = spla.splu(Kff, permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=10,
                       options=dict(SymmetricMode=True))
        x_free = lu.solve(rhs)
    except RuntimeError as exc:  # exactly singular factor
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(x_free)):
        raise SingularSystem("solver produced non-finite values; system under-constrained")
    denom = np.linalg.norm(rhs)
    res = np.linalg.norm(Kff @ x_free - rhs)
    if res > RESIDUAL_TOL * max(denom, 1e-30):
        raise SingularSystem(f"linear solve residual {res / max(denom, 1e-30):.2e} above tolerance")
    x = np.zeros(f.size)
    x[pattern.free] = x_free
    x[pattern.fixed] = fixed_vals
    return x
