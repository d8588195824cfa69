"""The two shipped plate problems and their reference gradations.

Problem 1: square Ni/Al2O3 half-plate (0.1 m x 0.1 m, plane strain, 40x40
elements) uniformly cooled by 700 K from its stress-free state; symmetry
u1 = 0 on the left edge, u2 pinned at the outer bottom corner.  No conduction
solve.

Problem 2: Al/ZrO2 half-plate (0.15 m x 0.06 m, plane stress, 20x20
elements); top edge held at 500*sin(pi*x/(2L)) C, left and bottom edges
convecting to 0 C with h = 50 W/m^2/C, right edge adiabatic and u1 = 0
(symmetry), lower-left corner pinned vertically, all edges traction-free.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .fem import (
    MATERIALS,
    Adiabatic,
    Convection,
    Dirichlet,
    EdgeConstraint,
    MechBCSet,
    PointConstraint,
    ProblemConfig,
    ThermalBCSet,
)
from .profiles import Profile2D, power_law_profile, tensor_product

PROBLEM_IDS = ("problem1", "problem2")


def problem1() -> ProblemConfig:
    """Uniformly cooled Ni/Al2O3 plate (plane strain, no conduction solve).

    Only the symmetry condition (u1 = 0 on the left edge) is published; the
    vertical rigid mode is removed by pinning u2 at the outer bottom corner,
    a simple support that leaves thermal bending free.
    """
    return ProblemConfig(
        L=0.1,
        H=0.1,
        nx=40,
        ny=40,
        materials=MATERIALS["Ni/Al2O3"],
        mech=MechBCSet(
            edges=(EdgeConstraint("left", "u1"),),
            points=(PointConstraint("bottom_right", "u2"),),
        ),
        thermal=None,
        mode="plane_strain",
        uniform_delta_theta=-700.0,
        name="problem1",
    )


def problem2() -> ProblemConfig:
    """Al/ZrO2 plate with sinusoidal top heating (plane stress)."""
    L = 0.15
    top = Dirichlet(lambda x, y, L=L: 500.0 * math.sin(math.pi * x / (2.0 * L)))
    return ProblemConfig(
        L=L,
        H=0.06,
        nx=20,
        ny=20,
        materials=MATERIALS["Al/ZrO2"],
        mech=MechBCSet(
            edges=(EdgeConstraint("right", "u1"),),
            points=(PointConstraint("bottom_left", "u2"),),
        ),
        thermal=ThermalBCSet(
            left=Convection(h=50.0, t_inf=0.0),
            right=Adiabatic(),
            bottom=Convection(h=50.0, t_inf=0.0),
            top=top,
        ),
        mode="plane_stress",
        name="problem2",
    )


def get_problem(problem_id: str) -> ProblemConfig:
    if problem_id == "problem1":
        return problem1()
    if problem_id == "problem2":
        return problem2()
    raise ValueError(f"unknown problem id {problem_id!r}")


def stress_scale(config: ProblemConfig) -> float:
    """Normalization applied to stress targets before network training."""
    return 1.0e7 if config.name == "problem1" else 1.0e6


def mutation_probability(config: ProblemConfig) -> float:
    return 0.3 if config.name == "problem1" else 0.4


def power_law_reference(config: ProblemConfig, m: float, axis: str = "y") -> Profile2D:
    """Reference gradation (x/L)^m along one axis, or their tensor product.

    ``axis="y"`` varies through the height only (uniform in x), ``"x"`` the
    transpose, ``"xy"`` the 2D product of the two power laws (m = 1 gives the
    bilinear reference field).
    """
    px, py = power_law_profile(config.nx, m), power_law_profile(config.ny, m)
    if axis == "xy":
        return tensor_product(px, py)
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    if axis == "x":
        grid = np.outer(px.values, np.ones(config.ny + 1))
    else:
        grid = np.outer(np.ones(config.nx + 1), py.values)
    return Profile2D(grid)


# --- published reference-stress configurations -----------------------------
#
# The reference comparisons quoted for both plates descend from an older
# benchmark study; reproducing the published numbers needs its conventions
# rather than the optimization configs above: problem 1's comparisons are
# for the three-layer plate (homogeneous metal face below FACE_FRACTION*H,
# homogeneous ceramic face above, power-law core) in a plane-stress
# cross-section, simply supported; problem 2's were computed with the legacy
# Al/ZrO2 data.

P1_FACE_FRACTION = 0.175  # 7 of 40 elements per homogeneous face layer


def reference_config(problem_id: str) -> ProblemConfig:
    """Configuration on which the published reference stresses are evaluated."""
    if problem_id == "problem1":
        base = problem1()
        return replace(base, mode="plane_stress", name="problem1-reference")
    if problem_id == "problem2":
        base = problem2()
        return replace(base, materials=MATERIALS["Al/ZrO2-legacy"], name="problem2-reference")
    raise ValueError(f"unknown problem id {problem_id!r}")


def three_layer_power_law(config: ProblemConfig, m: float) -> Profile2D:
    """Through-height profile: metal face, power-law core, ceramic face."""
    f1, f2 = P1_FACE_FRACTION, 1.0 - P1_FACE_FRACTION
    y = np.linspace(0.0, 1.0, config.ny + 1)
    core = np.clip((y - f1) / (f2 - f1), 0.0, 1.0) ** m
    col = np.where(y < f1, 0.0, np.where(y > f2, 1.0, core))
    return Profile2D(np.tile(col, (config.nx + 1, 1)))


def reference_profile(problem_id: str, m: float, axis: str = "y") -> Profile2D:
    """The published comparison gradation for one problem.

    Problem 1 uses the three-layer through-height power law; problem 2 the
    plain single-axis (or tensor) power law.
    """
    cfg = reference_config(problem_id)
    if problem_id == "problem1" and axis == "y":
        return three_layer_power_law(cfg, m)
    return power_law_reference(cfg, m, axis)


# per-case optimization settings for problem 2 (problem 1 is unconstrained)
CASE_DEFAULTS = {
    "unconstrained": {"objective": "sigma_e_max"},
    "case1": {"objective": "sigma_e_max"},
    "case2": {"objective": "sigma_e_max", "v_star": 0.15},
    "case3": {"objective": "sigma_e_max", "theta_max": 275.0},
    "case4": {"objective": "v_ca", "sigma_allow": 150.0e6, "theta_max": 275.0},
}
