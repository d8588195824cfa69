"""2D thermoelastic finite elements on structured 9-node quadrilateral meshes.

One-way coupled analysis of a rectangular two-phase graded plate: a linear
steady heat-conduction solve (Dirichlet / convection / adiabatic edge
conditions) followed by a linear elastic solve with the temperature field
entering as an initial-stress load.  The volume fraction is given at the
element vertices (``Profile2D``), so each element is one bilinear cell of it.
Point properties come from the rule of mixtures at the 3x3 Gauss points of
every element, where that bilinear field is sampled independently of the
biquadratic displacement and temperature interpolation.  Temperatures are
reported on the same vertex grid, as the nodal values there.

Conventions
-----------
* temperatures are changes relative to the stress-free reference state;
* the volume fraction ``phi`` is the ceramic fraction, metal is ``1 - phi``;
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
from .profiles import Profile2D, bilinear_shape, grid_points, metal_maximum

EDGES = ("left", "right", "bottom", "top")
CORNERS = {
    "bottom_left": (0.0, 0.0),
    "bottom_right": (1.0, 0.0),
    "top_left": (0.0, 1.0),
    "top_right": (1.0, 1.0),
}
RESIDUAL_TOL = 1e-10


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
    metal: PhaseProperties
    ceramic: PhaseProperties


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


def material_at(pair: MaterialPair, phi_metal):
    """Rule-of-mixtures blend P = P_m*phi_m + P_c*(1 - phi_m) at given metal fraction.

    Accepts scalars or arrays; returns a dict of blended E, nu, alpha, k.
    """
    phi_metal = np.asarray(phi_metal, dtype=float)
    if np.any(phi_metal < -1e-12) or np.any(phi_metal > 1.0 + 1e-12):
        raise PhiOutOfRange("metal volume fraction must lie in [0, 1]")
    phi_metal = np.clip(phi_metal, 0.0, 1.0)
    m, c = pair.metal, pair.ceramic
    return {
        "E": m.E * phi_metal + c.E * (1.0 - phi_metal),
        "nu": m.nu * phi_metal + c.nu * (1.0 - phi_metal),
        "alpha": m.alpha * phi_metal + c.alpha * (1.0 - phi_metal),
        "k": m.k * phi_metal + c.k * (1.0 - phi_metal),
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

    def is_well_posed(self) -> bool:
        conds = [self.on(e) for e in EDGES]
        return any(isinstance(c, (Dirichlet, Convection)) for c in conds)


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

    Defaults are traction-free; the constraint list must remove all
    rigid-body modes (a singular solve raises otherwise).
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
        if self.thermal is None and self.uniform_delta_theta is None:
            raise ValueError("need thermal BCs or a uniform temperature change")
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
    (-1, 0, 1); returns (N[9], dN_dxi[9], dN_deta[9]).
    """
    lx, dlx = _lagrange_quadratic(float(xi))
    ly, dly = _lagrange_quadratic(float(eta))
    n = np.outer(ly, lx).ravel()
    dxi = np.outer(ly, dlx).ravel()
    deta = np.outer(dly, lx).ravel()
    return n, dxi, deta


GAUSS_1D = (
    (-math.sqrt(3.0 / 5.0), 5.0 / 9.0),
    (0.0, 8.0 / 9.0),
    (math.sqrt(3.0 / 5.0), 5.0 / 9.0),
)


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
        point g = 3 * j + i at parametric (xi_i, eta_j) of GAUSS_1D."""
        hx, hy = self.L / self.nx, self.H / self.ny
        t = np.array([p for p, _ in GAUSS_1D])
        xi, eta = np.tile(t, 3), np.repeat(t, 3)
        centers_x = np.tile(np.arange(self.nx) * hx + hx / 2.0, self.ny)
        centers_y = np.repeat(np.arange(self.ny) * hy + hy / 2.0, self.nx)
        gx = centers_x[:, None] + xi[None, :] * hx / 2.0
        gy = centers_y[:, None] + eta[None, :] * hy / 2.0
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
    profile: Profile2D
    nodal_temperature: np.ndarray  # (n_nodes,)
    nodal_displacement: np.ndarray  # (n_nodes, 2)
    gauss_xy: np.ndarray  # (n_elems, 9, 2)
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
                                 ("volume_fraction.csv", "grid", result.profile.grid)):
        text = _csv_template(points, m.L, m.H, m.nx, m.ny) % tuple(values.ravel().tolist())
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
    only when ``config.thermal`` is set, elastic always) scatters its element
    matrices with one bincount into the CSC pattern of the reduced SPD system
    K[free][:, free], which SuperLU factors in symmetric mode in the order it
    is numbered.  That numbering is one fill-reducing order of the mesh
    nodes, a minimum-degree order of the node graph shared by both fields:
    thermal dofs follow the node rank, elastic dofs (node rank, component).
    The order and the patterns are built on the first solve and cached;
    otherwise the solver is immutable, and solves on different profiles share
    no mutable state and may run concurrently.  A profile holds the volume
    fraction at the mesh's element vertices, so each element is one bilinear
    cell of it: one table of the four corner weights at the nine Gauss points,
    built with the basis, samples every element.
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
        det = hx * hy / 4.0
        wts, nmat, bx, by = [], [], [], []
        for eta, weta in GAUSS_1D:
            for xi, wxi in GAUSS_1D:
                n, dxi, deta = shape9(xi, eta)
                wts.append(wxi * weta * det)
                nmat.append(n)
                bx.append(dxi * 2.0 / hx)
                by.append(deta * 2.0 / hy)
        self.gauss_w = np.array(wts)  # (9,), includes |J|
        self.gauss_N = np.array(nmat)  # (9 gauss, 9 nodes)
        self.gauss_bx = np.array(bx)
        self.gauss_by = np.array(by)

        # thermal: M_g = w |J| B^T B, so Ke = sum_g k_eg M_g, one (9 gauss, 81) matmul
        B = np.stack([self.gauss_bx, self.gauss_by], axis=1)  # (9, 2, 9)
        self.therm_M = np.einsum("g,gia,gib->gab", self.gauss_w, B, B).reshape(9, 81)

        # elastic B (9 gauss, 3, 18); dof order (ux0, uy0, ux1, uy1, ...)
        Bel = np.zeros((9, 3, 18))
        Bel[:, 0, 0::2] = self.gauss_bx
        Bel[:, 1, 1::2] = self.gauss_by
        Bel[:, 2, 0::2] = self.gauss_by
        Bel[:, 2, 1::2] = self.gauss_bx
        self.elast_B = Bel
        # Ke = [lambda_eg | mu_eg] @ elast_P, with rows w B^T A B for lambda, then w B^T M B for mu
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        M = np.diag([2.0, 2.0, 1.0])
        self.elast_P = np.einsum("g,gia,cij,gjb->cgab", self.gauss_w, Bel, np.stack([A, M]), Bel).reshape(18, 324)
        self.elast_V = np.einsum("g,gia,i->ga", self.gauss_w, Bel, np.array([1.0, 1.0, 0.0]))

        self.gauss_xy = mesh.gauss_points()  # (n_elems, 9, 2)

        # profile node (i, j) is mesh vertex (2i, 2j): element corners in bilinear_shape's
        # order, as ids into grid.ravel(), and their weights at the Gauss points
        t = np.array([p for p, _ in GAUSS_1D])
        self._phi_weights = bilinear_shape(np.tile(t, 3), np.repeat(t, 3))  # (9 gauss, 4)
        corners, NX = mesh.conn[:, [0, 2, 8, 6]], 2 * mesh.nx + 1
        self._phi_corners = corners % NX // 2 * (mesh.ny + 1) + corners // NX // 2

        # 1D quadratic edge basis at 3-point Gauss, for edge integrals
        self.edge_w = np.array([w for _, w in GAUSS_1D])
        self.edge_N = np.array([_lagrange_quadratic(t)[0] for t, _ in GAUSS_1D])  # (3 gauss, 3 nodes)
        self.edge_load = self.edge_w @ self.edge_N  # unit edge load per node, per unit half-length
        self.edge_mass = np.einsum("g,ga,gb->ab", self.edge_w, self.edge_N, self.edge_N)

    def _prescribed(self, entries, per_node: int):
        """(sorted fixed dofs, their values, free dofs) of a field with per_node dofs a node.

        ``entries`` are (node ids, component, value) with value a number or
        f(x, y); a later entry overrides an earlier one on a shared node.
        """
        fixed = {}
        for nodes, comp, value in entries:
            for nid in nodes:
                x, y = self.mesh.coords[nid]
                fixed[per_node * nid + comp] = value(x, y) if callable(value) else float(value)
        dofs = np.array(sorted(fixed), dtype=np.int64)
        free = np.delete(np.arange(per_node * self.mesh.n_nodes), dofs)
        return dofs, np.array([fixed[d] for d in dofs]), free

    def _resolve_thermal_bcs(self):
        """Dirichlet table, convection matrix entries and the load vector, once per solver."""
        cfg, mesh = self.config, self.mesh
        if cfg.thermal is None:
            return
        if not cfg.thermal.is_well_posed():
            raise SingularSystem("thermal problem needs a Dirichlet or convection edge")
        bcs = [(e, cfg.thermal.on(e)) for e in EDGES]
        # later edges in EDGES order override shared corners
        self.dirichlet_nodes, self.dirichlet_vals, self._thermal_free = self._prescribed(
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
        """Fixed-displacement table and the per-edge traction loads, once per solver."""
        mech, mesh = self.config.mech, self.mesh
        comp = {"u1": 0, "u2": 1}
        entries = [(mesh.edge_nodes(ec.edge), comp[ec.component], ec.value) for ec in mech.edges]
        entries += [([mesh.corner_node(pc.corner)], comp[pc.component], 0.0) for pc in mech.points]
        self.fixed_dofs, self.fixed_vals, self._mech_free = self._prescribed(entries, 2)
        self._traction_loads = []
        for tr in mech.tractions:
            enodes, half = mesh.edge_conn(tr.edge)
            ft = half * self.edge_load
            self._traction_loads += [(2 * enodes, tr.tx * ft), (2 * enodes + 1, tr.ty * ft)]

    @functools.cached_property
    def _node_rank(self) -> np.ndarray:
        """Position of each node in a fill-reducing elimination order of the mesh."""
        return _minimum_degree_rank(self.mesh)

    def _in_node_order(self, free: np.ndarray, per_node: int) -> np.ndarray:
        """The free dofs of a field with per_node dofs a node, by (node rank, component)."""
        return free[np.argsort(per_node * self._node_rank[free // per_node] + free % per_node)]

    @functools.cached_property
    def _thermal_pattern(self) -> "_ReducedPattern":
        return _ReducedPattern(self.mesh.conn, self.dirichlet_nodes,
                               self._in_node_order(self._thermal_free, 1), const=self._conv)

    @functools.cached_property
    def _mech_pattern(self) -> "_ReducedPattern":
        return _ReducedPattern(self.elem_dofs, self.fixed_dofs, self._in_node_order(self._mech_free, 2))

    # -- profile sampling ----------------------------------------------------

    def phi_at_gauss(self, profile: Profile2D) -> np.ndarray:
        """Ceramic fraction at every Gauss point, (n_elems, 9): one gather of each
        element's corner values times the bilinear weights at the Gauss points.

        Every solve samples its profile here.  Raises DimensionMismatch unless
        the profile has a value at each of the mesh's element vertices.
        """
        nodes = (self.mesh.nx + 1, self.mesh.ny + 1)
        if profile.grid.shape != nodes:
            raise DimensionMismatch(
                f"profile has {profile.grid.shape[0]} x {profile.grid.shape[1]} nodes, "
                f"the {self.mesh.nx} x {self.mesh.ny} element plate has {nodes[0]} x {nodes[1]}")
        return profile.grid.ravel()[self._phi_corners] @ self._phi_weights.T

    # -- thermal solve -------------------------------------------------------

    def _conductance(self, profile: Profile2D) -> np.ndarray:
        """Element conduction matrices, one flattened 9x9 per row, without convection."""
        if self.config.thermal is None:
            raise SingularSystem("no thermal boundary conditions configured")
        kvals = material_at(self.config.materials, 1.0 - self.phi_at_gauss(profile))["k"]
        return kvals @ self.therm_M

    def thermal_system(self, profile: Profile2D):
        """Full assembled (K, f) with convection terms, before Dirichlet elimination."""
        ke = self._conductance(profile)
        everything = _ReducedPattern(self.mesh.conn, np.empty(0, dtype=np.int64),
                                     np.arange(self.mesh.n_nodes), const=self._conv)
        return everything.assemble(ke)[0], self._thermal_f.copy()

    def solve_thermal(self, profile: Profile2D) -> np.ndarray:
        """Nodal temperature change field theta-bar."""
        ke = self._conductance(profile)
        return _constrained_solve(self._thermal_pattern, ke, self._thermal_f, self.dirichlet_vals)

    # -- elastic solve ---------------------------------------------------------

    def _blend_elastic(self, phi):
        props = material_at(self.config.materials, 1.0 - phi)
        E, nu, alpha = props["E"], props["nu"], props["alpha"]
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        mu = E / (2.0 * (1.0 + nu))
        if self.config.mode == "plane_stress":
            lam_eff = 2.0 * lam * mu / (lam + 2.0 * mu)
            beta = E * alpha / (1.0 - nu)
        else:
            lam_eff = lam
            beta = E * alpha / (1.0 - 2.0 * nu)
        return mu, lam_eff, beta

    def solve_elastic(self, profile: Profile2D, theta_nodal: np.ndarray) -> np.ndarray:
        """Nodal displacements (n_nodes, 2) under thermal + mechanical loads."""
        if self.fixed_dofs.size == 0:
            raise SingularSystem("no displacement constraints; rigid modes present")
        phi = self.phi_at_gauss(profile)
        mu, lam_eff, beta = self._blend_elastic(phi)
        f = np.zeros(2 * self.mesh.n_nodes)
        theta_g = theta_nodal[self.mesh.conn] @ self.gauss_N.T  # (n_elems, 9)
        _scatter_add(f, self.elem_dofs, (beta * theta_g) @ self.elast_V)
        for dofs, fe in self._traction_loads:
            _scatter_add(f, dofs, fe)
        u = _constrained_solve(self._mech_pattern, np.hstack([lam_eff, mu]) @ self.elast_P, f,
                               self.fixed_vals)
        return u.reshape(-1, 2)

    # -- post-processing ---------------------------------------------------

    def gauss_stress(self, profile: Profile2D, u: np.ndarray, theta_nodal: np.ndarray):
        """In-plane physical stress components and effective stress at Gauss points."""
        phi = self.phi_at_gauss(profile)
        mu, lam_eff, beta = self._blend_elastic(phi)
        ue = u.reshape(-1)[self.elem_dofs]  # (n_elems, 18)
        strain = (ue @ self.elast_B.reshape(27, 18).T).reshape(-1, 9, 3)  # (e, g, 3)
        theta_g = theta_nodal[self.mesh.conn] @ self.gauss_N.T
        tr2 = strain[:, :, 0] + strain[:, :, 1]
        bt = beta * theta_g
        sxx = lam_eff * tr2 + 2.0 * mu * strain[:, :, 0] - bt
        syy = lam_eff * tr2 + 2.0 * mu * strain[:, :, 1] - bt
        sxy = mu * strain[:, :, 2]
        se = effective_stress(sxx, syy, sxy)
        return {"sxx": sxx, "syy": syy, "sxy": sxy, "effective": se}

    def temperature_on_profile_grid(self, theta_nodal: np.ndarray) -> np.ndarray:
        """The nodal temperatures at the element vertices, (nx+1, ny+1) as a profile grid."""
        return theta_nodal.reshape(-1, 2 * self.mesh.nx + 1)[::2, ::2].T

    def v_ca(self, profile: Profile2D) -> float:
        """Domain-average ceramic fraction by the element Gauss rule."""
        phi = self.phi_at_gauss(profile)
        return float((phi * self.gauss_w).sum() / (self.config.L * self.config.H))

    def run(self, profile: Profile2D) -> FemResult:
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
            gauss_xy=self.gauss_xy,
            gauss_effective_stress=se,
            temperature_grid=theta_grid,
            sigma_e_max=float(se.max()),
            v_ca=self.v_ca(profile),
            max_metal_temperature=metal_maximum(theta_grid, profile.grid),
        )


def _scatter_add(f: np.ndarray, idx: np.ndarray, fe: np.ndarray) -> None:
    """f[idx] += fe, with fe one row shared by all rows of idx or one row each."""
    f += np.bincount(idx.ravel(), weights=np.broadcast_to(fe, idx.shape).ravel(),
                     minlength=f.size)


class _ReducedPattern:
    """CSC patterns of K[free][:, free] and K[free][:, fixed] of one field, fixed per solver.

    ``slot`` sends each entry of the per-row element matrices of ``idx`` to
    [Kff.data | Kfc.data | one discard slot for the fixed rows], so assembly
    is one bincount.  Constant element matrices ``const = (idx, matrices)``,
    the convection terms, are summed into ``base`` once.
    """

    def __init__(self, idx: np.ndarray, fixed: np.ndarray, free: np.ndarray, const=None):
        nf, n = free.size, free.size + fixed.size
        pos = np.empty(n, dtype=np.int64)  # free dofs first, then fixed ones
        pos[free] = np.arange(nf)
        pos[fixed] = nf + np.arange(fixed.size)
        blocks = [idx] if const is None else [idx, const[0]]
        keys, slot = np.unique(np.concatenate([_entry_keys(pos[b], nf, n) for b in blocks]),
                               return_inverse=True)
        n_elem = idx.size * idx.shape[1]
        self.free, self.fixed = free, fixed
        self.slot = slot[:n_elem].astype(np.int32)
        self.rows = (keys % nf).astype(np.int32)
        self.ptr = np.searchsorted(keys, np.arange(n + 1) * nf).astype(np.int32)  # column starts
        self.base = 0.0 if const is None else np.bincount(
            slot[n_elem:], weights=const[1].ravel(), minlength=keys.size)

    def assemble(self, ke: np.ndarray):
        """(Kff, Kfc) from element matrices ordered as ``idx``."""
        data = np.bincount(self.slot, weights=ke.ravel(), minlength=self.rows.size) + self.base
        nf, p, rows = self.free.size, self.ptr, self.rows
        Kff = sp.csc_matrix((data[:p[nf]], rows[:p[nf]], p[:nf + 1]), shape=(nf, nf))
        Kfc = sp.csc_matrix((data[p[nf]:p[-1]], rows[p[nf]:p[-1]], p[nf:] - p[nf]),
                            shape=(nf, self.fixed.size))
        return Kff, Kfc


def _entry_keys(p: np.ndarray, nf: int, n: int) -> np.ndarray:
    """Column-major key c*nf + r of each entry (r, c) of the per-row element matrices on
    dof positions p (free dofs first): Kff columns, then Kfc columns, then n*nf for fixed rows."""
    rows, cols = p[:, :, None], p[:, None, :]
    return np.where(rows < nf, cols * nf + rows, n * nf).ravel()


def _minimum_degree_rank(mesh: Mesh) -> np.ndarray:
    """Rank of each node in SuperLU's minimum-degree order (MMD on A^T + A) of the node graph.

    The graph couples the nodes of each element.  The order depends only on
    the pattern, so SuperLU computes it for an incomplete factor of a
    diagonally dominant matrix on the graph, with a drop tolerance of 1 that
    keeps the numeric work small.  ``perm_c`` is a view that keeps the whole
    factor alive, so it is copied out.
    """
    nodes = _ReducedPattern(mesh.conn, np.empty(0, dtype=np.int64), np.arange(mesh.n_nodes))
    graph = nodes.assemble(np.broadcast_to((10.0 * np.eye(9) - 1.0).ravel(), (mesh.n_elems, 81)))[0]
    ilu = spla.spilu(graph, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, drop_tol=1.0,
                     fill_factor=1.0, options=dict(SymmetricMode=True))
    return ilu.perm_c.copy()


def _constrained_solve(pattern: _ReducedPattern, ke: np.ndarray, f: np.ndarray,
                       fixed_vals: np.ndarray) -> np.ndarray:
    """Direct sparse solve with the Dirichlet dofs eliminated symmetrically.

    Kff = K[free][:, free] and the coupling Kfc = K[free][:, fixed] are
    assembled on the solver's precomputed pattern, whose ``free`` already
    lists the dofs in the solver's fill-reducing node order.  Kff is SPD, so
    SuperLU factors it in symmetric mode with no pivoting and no ordering of
    its own; ``x_free`` maps back through ``pattern.free``.  ``solve_elastic``
    passes ``ke`` as a temporary, so its element matrices (4 MB on problem 1)
    are freed here, before the factor sets the solve's peak memory.
    """
    Kff, Kfc = pattern.assemble(ke)
    del ke
    rhs = f[pattern.free]
    if fixed_vals.size:
        rhs = rhs - Kfc @ fixed_vals
    try:
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
