"""Built-in solver verification: analytic oracles and patch tests.

Each check solves a small problem with a known closed-form answer and
reports the measured error against its tolerance.  ``run_all`` powers the
``verify`` CLI command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    EDGES,
    MATERIALS,
    Convection,
    Dirichlet,
    EdgeConstraint,
    EdgeTraction,
    MechBCSet,
    PointConstraint,
    ProblemConfig,
    ThermalBCSet,
    ThermoelasticSolver,
    shape9,
)
from .profiles import Profile2D
from .rng import make_rng
from . import problems


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def _uniform(phi, cfg: ProblemConfig):
    return Profile2D(np.full((cfg.nx + 1, cfg.ny + 1), float(phi)))


def check_shape_partition_of_unity() -> Check:
    rng = make_rng(0)
    worst = 0.0
    for _ in range(10_000):
        xi, eta = rng.uniform(-1, 1, 2)
        n, _, _ = shape9(xi, eta)
        worst = max(worst, abs(n.sum() - 1.0))
    return Check("biquadratic partition of unity", worst, 1e-12)


def check_linear_conduction() -> Check:
    cfg = ProblemConfig(
        L=1.0, H=0.5, nx=8, ny=4, materials=MATERIALS["Al/ZrO2"],
        mech=MechBCSet(edges=(EdgeConstraint("left", "u1"), EdgeConstraint("bottom", "u2"))),
        thermal=ThermalBCSet(left=Dirichlet(0.0), right=Dirichlet(100.0)),
        mode="plane_stress")
    s = ThermoelasticSolver(cfg)
    theta = s.solve_thermal(_uniform(0.0, cfg))
    err = float(np.abs(theta - 100.0 * s.mesh.coords[:, 0]).max())
    return Check("linear conduction (exact nodal field)", err, 1e-9)


def check_parabolic_source() -> Check:
    Q, k = 1.0e4, MATERIALS["Al/ZrO2"].metal.k
    cfg = ProblemConfig(
        L=1.0, H=0.25, nx=20, ny=2, materials=MATERIALS["Al/ZrO2"],
        mech=MechBCSet(edges=(EdgeConstraint("left", "u1"),)), heat_source=Q,
        thermal=ThermalBCSet(left=Dirichlet(0.0), right=Dirichlet(0.0)),
        mode="plane_stress")
    s = ThermoelasticSolver(cfg)
    theta = s.solve_thermal(_uniform(0.0, cfg))
    x = s.mesh.coords[:, 0]
    exact = Q * x * (1.0 - x) / (2 * k)
    err = float(np.abs(theta - exact).max() / exact.max())
    return Check("uniform-source parabolic conduction", err, 1e-6)


def check_displacement_patch() -> Check:
    a11, a12, a21, a22 = 1e-4, -3e-5, 2e-5, -8e-5
    u1 = lambda x, y: a11 * x + a12 * y
    u2 = lambda x, y: a21 * x + a22 * y
    edges = tuple(EdgeConstraint(e, c, v) for e in ("left", "right", "bottom", "top")
                  for c, v in (("u1", u1), ("u2", u2)))
    pair = MATERIALS["Al/ZrO2"]
    cfg = ProblemConfig(
        L=0.3, H=0.2, nx=4, ny=3, materials=pair, mech=MechBCSet(edges=edges),
        thermal=None, uniform_delta_theta=0.0, mode="plane_strain")
    s = ThermoelasticSolver(cfg)
    prof = _uniform(1.0, cfg)
    theta = np.zeros(s.mesh.n_nodes)
    u = s.solve_elastic(prof, theta)
    stress = s.gauss_stress(prof, u, theta)
    E, nu = pair.ceramic.E, pair.ceramic.nu
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    sxx = lam * (a11 + a22) + 2 * mu * a11
    syy = lam * (a11 + a22) + 2 * mu * a22
    sxy = mu * (a12 + a21)
    err = max(float(np.abs(stress[key] - exact).max() / abs(exact))
              for key, exact in (("sxx", sxx), ("syy", syy), ("sxy", sxy)))
    return Check("elastic patch (constant stress)", err, 1e-8)


def check_traction_patch() -> Check:
    T = 2.5e6
    cfg = ProblemConfig(
        L=1.0, H=0.25, nx=6, ny=2, materials=MATERIALS["Ni/Al2O3"],
        mech=MechBCSet(
            edges=(EdgeConstraint("left", "u1"),),
            points=(PointConstraint("bottom_left", "u2"),),
            tractions=(EdgeTraction("right", tx=T),)),
        thermal=None, uniform_delta_theta=0.0, mode="plane_stress")
    s = ThermoelasticSolver(cfg)
    prof = _uniform(0.0, cfg)
    theta = np.zeros(s.mesh.n_nodes)
    u = s.solve_elastic(prof, theta)
    stress = s.gauss_stress(prof, u, theta)
    err = float(np.abs(stress["sxx"] - T).max() / T)
    return Check("uniaxial traction patch", err, 1e-8)


def check_free_expansion() -> Check:
    pair = MATERIALS["Ni/Al2O3"]
    dT = 50.0
    cfg = ProblemConfig(
        L=1.0, H=1.0, nx=6, ny=6, materials=pair,
        mech=MechBCSet(points=(
            PointConstraint("bottom_left", "u1"),
            PointConstraint("bottom_left", "u2"),
            PointConstraint("bottom_right", "u2"))),
        thermal=None, uniform_delta_theta=dT, mode="plane_stress")
    r = ThermoelasticSolver(cfg).run(_uniform(0.0, cfg))
    scale = pair.metal.E * pair.metal.alpha * dT
    return Check("stress-free thermal expansion", r.sigma_e_max / scale, 1e-6)


def check_roller_constrained_expansion() -> Check:
    pair = MATERIALS["Al/ZrO2"]
    dT = 80.0
    cfg = ProblemConfig(
        L=0.5, H=0.25, nx=6, ny=3, materials=pair,
        mech=MechBCSet(
            edges=(EdgeConstraint("left", "u1"), EdgeConstraint("right", "u1")),
            points=(PointConstraint("bottom_left", "u2"),)),
        thermal=None, uniform_delta_theta=dT, mode="plane_strain")
    r = ThermoelasticSolver(cfg).run(_uniform(1.0, cfg))
    E, nu, alpha = pair.ceramic.E, pair.ceramic.nu, pair.ceramic.alpha
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    beta = E * alpha / (1 - 2 * nu)
    exact = 2 * mu * beta * dT / (lam + 2 * mu)
    return Check("roller-constrained expansion oracle", abs(r.sigma_e_max - exact) / exact, 1e-6)


def check_compatible_gradation_stress_free() -> Check:
    cfg = problems.problem1()
    prof = problems.power_law_reference(cfg, 1.0, "y")
    r = ThermoelasticSolver(cfg).run(prof)
    pair = MATERIALS["Ni/Al2O3"]
    scale = pair.metal.E * pair.metal.alpha * 700.0
    return Check("compatible linear gradation is stress-free", r.sigma_e_max / scale, 1e-6)


def check_energy_balance() -> Check:
    cfg = problems.problem2()
    s = ThermoelasticSolver(cfg)
    prof = problems.power_law_reference(cfg, 1.0, "y")
    K, f = s.thermal_system(prof)
    theta = s.solve_thermal(prof)
    reactions = (K @ theta - f)[s.dirichlet_nodes]
    # independent edge quadrature of the convective outflow
    outflow = 0.0
    for edge in EDGES:
        bc = cfg.thermal.on(edge)
        if not isinstance(bc, Convection):
            continue
        enodes, half = s.mesh.edge_conn(edge)
        tvals = theta[enodes] @ s.edge_N.T
        outflow += bc.h * half * float(((tvals - bc.t_inf) * s.edge_w).sum())
    err = abs(float(reactions.sum()) - outflow) / abs(outflow)
    return Check("boundary energy balance", err, 1e-8)


ALL_CHECKS = (
    check_shape_partition_of_unity,
    check_linear_conduction,
    check_parabolic_source,
    check_displacement_patch,
    check_traction_patch,
    check_free_expansion,
    check_roller_constrained_expansion,
    check_compatible_gradation_stress_free,
    check_energy_balance,
)


def run_all() -> list[Check]:
    return [fn() for fn in ALL_CHECKS]
