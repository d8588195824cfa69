"""The two shipped plate problems, their reference gradations and their table.

Problem 1: square Ni/Al2O3 half-plate (0.1 m x 0.1 m, plane strain, 40x40
elements) uniformly cooled by 700 K from its stress-free state; symmetry
u1 = 0 on the left edge, u2 pinned at the outer bottom corner.  No conduction
solve.

Problem 2: Al/ZrO2 half-plate (0.15 m x 0.06 m, plane stress, 20x20
elements); top edge held at 500*sin(pi*x/(2L)) C, left and bottom edges
convecting to 0 C with h = 50 W/m^2/C, right edge adiabatic and u1 = 0
(symmetry), lower-left corner pinned vertically, all edges traction-free.

``PROBLEMS`` holds everything a problem id selects, one ``ProblemSpec`` row
each.  Its readers raise ValueError naming an id, config name or case outside
it.  ``stress_scale`` reads the row of ``config.name``: a ``replace`` of an
optimization config keeps its name and so its row, but ``reference_config``
renames it ``<id>-reference``, which has none.  The second table,
``ga.OBJECTIVES``, holds each objective's penalty weight and stall tolerance,
read only where they are applied: by ``ga.FitnessEvaluator`` and ``ga.evolve``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .fem import (MATERIALS, Adiabatic, Convection, Dirichlet, EdgeConstraint, MechBCSet,
                  PointConstraint, ProblemConfig, ThermalBCSet)
from .neural import TrainStage
from .profiles import power_law_profile, tensor_product


def problem1() -> ProblemConfig:
    """Uniformly cooled Ni/Al2O3 plate (plane strain, no conduction solve).

    Only the symmetry condition (u1 = 0 on the left edge) is published; the
    vertical rigid mode is removed by pinning u2 at the outer bottom corner,
    a simple support that leaves thermal bending free.
    """
    return ProblemConfig(
        L=0.1, H=0.1, nx=40, ny=40, materials=MATERIALS["Ni/Al2O3"],
        mech=MechBCSet(edges=(EdgeConstraint("left", "u1"),),
                       points=(PointConstraint("bottom_right", "u2"),)),
        thermal=None, mode="plane_strain", uniform_delta_theta=-700.0, name="problem1")


def problem2() -> ProblemConfig:
    """Al/ZrO2 plate with sinusoidal top heating (plane stress)."""
    L = 0.15
    top = Dirichlet(lambda x, y, L=L: 500.0 * math.sin(math.pi * x / (2.0 * L)))
    return ProblemConfig(
        L=L, H=0.06, nx=20, ny=20, materials=MATERIALS["Al/ZrO2"],
        mech=MechBCSet(edges=(EdgeConstraint("right", "u1"),),
                       points=(PointConstraint("bottom_left", "u2"),)),
        thermal=ThermalBCSet(left=Convection(h=50.0, t_inf=0.0), right=Adiabatic(),
                             bottom=Convection(h=50.0, t_inf=0.0), top=top),
        mode="plane_stress", name="problem2")


def power_law_reference(config: ProblemConfig, m: float, axis: str = "y") -> np.ndarray:
    """Reference gradation (x/L)^m: the tensor product of two axis profiles.

    ``axis`` names the axes that follow the power law; the other is uniform
    (all ones).  ``"y"`` varies through the height only, ``"x"`` the
    transpose, ``"xy"`` both (m = 1 gives the bilinear reference field).
    """
    if axis not in ("x", "y", "xy"):
        raise ValueError(f"unknown axis {axis!r}")
    px = power_law_profile(config.nx, m) if "x" in axis else np.ones(config.nx + 1)
    py = power_law_profile(config.ny, m) if "y" in axis else np.ones(config.ny + 1)
    return tensor_product(px, py)


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


def three_layer_power_law(config: ProblemConfig, m: float) -> np.ndarray:
    """Through-height profile: metal face, power-law core, ceramic face."""
    f1, f2 = P1_FACE_FRACTION, 1.0 - P1_FACE_FRACTION
    y = np.linspace(0.0, 1.0, config.ny + 1)
    core = np.clip((y - f1) / (f2 - f1), 0.0, 1.0) ** m
    col = np.where(y < f1, 0.0, np.where(y > f2, 1.0, core))
    return tensor_product(np.ones(config.nx + 1), col)


# per-case optimization settings; each problem ships the cases its row lists
CASE_DEFAULTS = {
    "unconstrained": {"objective": "sigma_e_max"},
    "case1": {"objective": "sigma_e_max"},
    "case2": {"objective": "sigma_e_max", "v_star": 0.15},
    "case3": {"objective": "sigma_e_max", "theta_max": 275.0},
    "case4": {"objective": "v_ca", "sigma_allow": 150.0e6, "theta_max": 275.0},
}


@dataclass(frozen=True)
class ProblemSpec:
    """Everything a problem id selects."""

    build: Callable[[], ProblemConfig]  # the optimization config
    reference: dict  # ``replace`` overrides giving the published reference-stress config
    reference_y: Callable  # (config, m) -> the published through-height gradation
    stress_scale: float  # normalization of stress targets before network training
    mutation_probability: float  # the GA's, per gene
    stress_stages: tuple  # the shipped train-stress schedule
    cases: tuple  # the CASE_DEFAULTS keys it ships


PROBLEMS = {
    "problem1": ProblemSpec(
        problem1, {"mode": "plane_stress", "name": "problem1-reference"},
        three_layer_power_law, 1.0e7, 0.3,
        (TrainStage(1e-3, 20, 32), TrainStage(1e-4, 50, 32), TrainStage(5e-5, 200, 32)),
        ("unconstrained", "case1")),  # unconstrained optimization only
    "problem2": ProblemSpec(
        problem2, {"materials": MATERIALS["Al/ZrO2-legacy"], "name": "problem2-reference"},
        power_law_reference, 1.0e6, 0.4,
        (TrainStage(1e-3, 20, 32), TrainStage(1e-4, 100, 32), TrainStage(5e-5, 200, 32)),
        tuple(CASE_DEFAULTS)),
}
PROBLEM_IDS = tuple(PROBLEMS)


def problem_spec(problem_id: str) -> ProblemSpec:
    if not isinstance(problem_id, str) or problem_id not in PROBLEMS:
        raise ValueError(f"unknown problem id {problem_id!r}")
    return PROBLEMS[problem_id]


def get_problem(problem_id: str) -> ProblemConfig:
    return problem_spec(problem_id).build()


def stress_scale(config: ProblemConfig) -> float:
    """Normalization applied to stress targets before network training."""
    return problem_spec(config.name).stress_scale


def case_defaults(problem_id: str, case: str) -> dict:
    """The objective and limits of a case that the problem ships."""
    cases = problem_spec(problem_id).cases
    if case not in cases:
        raise ValueError(f"unknown case {case!r} for {problem_id}, which ships {', '.join(cases)}")
    return CASE_DEFAULTS[case]


def reference_config(problem_id: str) -> ProblemConfig:
    """Configuration on which the published reference stresses are evaluated."""
    spec = problem_spec(problem_id)
    return replace(spec.build(), **spec.reference)


def reference_profile(problem_id: str, m: float, axis: str = "y") -> np.ndarray:
    """The published comparison gradation for one problem: through the height
    the row's ``reference_y`` (problem 1's is three-layer), else the plain power law."""
    cfg = reference_config(problem_id)
    if axis == "y":
        return problem_spec(problem_id).reference_y(cfg, m)
    return power_law_reference(cfg, m, axis)
