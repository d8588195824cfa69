import csv
import io
import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from fgmopt.errors import DimensionMismatch, PhiOutOfRange, SingularSystem
from fgmopt.fem import (
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
    MaterialPair,
    PhaseProperties,
    effective_stress,
    shape9,
    write_result_files,
)
from fgmopt.profiles import BOUND_TOL, interpolate
from fgmopt.rng import make_rng
from fgmopt import fem, problems, verification
from fem_oracle import dof_pattern, free_in_node_order, grid_points


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc saw allocated while ``fn()`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unequal_plate() -> ProblemConfig:
    """Problem 2's physics on 6 x 3 elements of a plate longer than it is high: every
    shipped plate has nx == ny, where a transposed profile grid keeps its shape."""
    return replace(problems.problem2(), L=0.12, H=0.05, nx=6, ny=3)


def uniform_profile(phi, nx, ny):
    return np.full((nx + 1, ny + 1), float(phi))


def effective_stress_tensor(sigma) -> float:
    """Von Mises invariant of a 3x3 symmetric stress tensor (test oracle)."""
    s = np.asarray(sigma, dtype=float)
    if s.shape != (3, 3):
        raise ValueError("expected a 3x3 tensor")
    dev = s - np.trace(s) / 3.0 * np.eye(3)
    return float(np.sqrt(1.5 * np.tensordot(dev, dev)))


def simple_mech():
    return MechBCSet(edges=(EdgeConstraint("left", "u1"), EdgeConstraint("bottom", "u2")))


class TestMaterials:
    def test_pure_phase_endpoints(self):
        # phi is the ceramic fraction
        pair = MATERIALS["Al/ZrO2"]
        assert pair.blend("E", 0.0) == 70.0e9 and pair.blend("k", 0.0) == 233.0
        assert pair.blend("E", 1.0) == 200.0e9 and pair.blend("k", 1.0) == 2.2

    def test_linear_midpoint(self):
        pair = MATERIALS["Ni/Al2O3"]
        assert pair.blend("E", 0.5) == pytest.approx((199.5e9 + 393.0e9) / 2, rel=1e-15)
        assert pair.blend("alpha", 0.5) == pytest.approx((15.4e-6 + 7.4e-6) / 2, rel=1e-15)

    def test_vectorized(self):
        pair = MATERIALS["Al/ZrO2"]
        phi = np.linspace(0, 1, 7).reshape(7, 1) * np.ones(3)
        k = pair.blend("k", phi)
        assert k.shape == (7, 3)
        np.testing.assert_allclose(k, 233.0 + (2.2 - 233.0) * phi, rtol=1e-14)

    def test_unequal_poisson_ratios_are_rejected(self):
        metal = PhaseProperties(E=70.0e9, nu=0.33, alpha=23.4e-6, k=233.0)
        ceramic = PhaseProperties(E=200.0e9, nu=0.3, alpha=10.0e-6, k=2.2)
        with pytest.raises(ValueError, match=r"one Poisson ratio, got metal 0\.33 and ceramic 0\.3$"):
            MaterialPair(metal=metal, ceramic=ceramic)


class TestShapeFunctions:
    def test_kronecker_delta_at_nodes(self):
        j, i = np.divmod(np.arange(9), 3)
        n, _, _ = shape9(i - 1.0, j - 1.0)  # node a = 3 j + i sits at (i - 1, j - 1)
        np.testing.assert_allclose(n, np.eye(9), atol=1e-14)

    def test_batch_is_the_tensor_product_formula(self):
        # N_a = l_i(xi) l_j(eta) at a = 3 j + i, and its two derivatives, bit for bit
        xi, eta = make_rng(1).uniform(-1.0, 1.0, (2, 2, 5))
        n, dxi, deta = shape9(xi, eta)
        assert n.shape == dxi.shape == deta.shape == (2, 5, 9)
        lx, dlx = fem._lagrange_quadratic(xi)
        ly, dly = fem._lagrange_quadratic(eta)
        for a in range(9):
            j, i = divmod(a, 3)
            assert np.array_equal(n[..., a], ly[..., j] * lx[..., i])
            assert np.array_equal(dxi[..., a], ly[..., j] * dlx[..., i])
            assert np.array_equal(deta[..., a], dly[..., j] * lx[..., i])
        # a scalar point gives one row of nine
        assert all(np.array_equal(v, w[1, 3]) for v, w in zip(shape9(xi[1, 3], eta[1, 3]),
                                                               (n, dxi, deta)))


class TestThermal:
    def test_two_material_slab_resistance_oracle(self):
        # phi steps from 0 to 1 between nodes 19 and 20 of a 40-cell grid;
        # the conductivity ramps linearly inside that one cell, so the exact
        # 1D resistance includes a log term for the ramp
        n = 40
        vals = np.where(np.arange(n + 1) <= 19, 0.0, 1.0)
        prof = np.tile(vals[:, None], (1, 3))
        pair = MATERIALS["Ni/Al2O3"]
        cfg = ProblemConfig(
            L=1.0, H=0.1, nx=n, ny=2, materials=pair, mech=simple_mech(),
            thermal=ThermalBCSet(left=Dirichlet(0.0), right=Dirichlet(100.0)),
            mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        theta = s.solve_thermal(prof)
        k1, k2 = pair.metal.k, pair.ceramic.k  # phi=0 is metal
        w = 1.0 / n

        def resistance(x):
            x1, x2 = 19 * w, 20 * w
            if x <= x1:
                return x / k1
            if x >= x2:
                ramp = w * math.log(k2 / k1) / (k2 - k1)
                return x1 / k1 + ramp + (x - x2) / k2
            t = (x - x1) / w
            return x1 / k1 + w * math.log((k1 + (k2 - k1) * t) / k1) / (k2 - k1)

        r_tot = resistance(1.0)
        exact = np.array([100.0 * resistance(x) / r_tot for x in s.mesh.coords[:, 0]])
        assert np.abs(theta - exact).max() / 100.0 < 1e-4

    def test_thermal_patch_linear_dirichlet(self):
        # linear Dirichlet data on all four edges reproduces the plane exactly
        f = lambda x, y: 3.0 + 2.0 * x - 5.0 * y
        cfg = ProblemConfig(
            L=0.4, H=0.3, nx=5, ny=4, materials=MATERIALS["Ni/Al2O3"],
            mech=simple_mech(),
            thermal=ThermalBCSet(left=Dirichlet(f), right=Dirichlet(f),
                                 bottom=Dirichlet(f), top=Dirichlet(f)),
            mode="plane_strain")
        s = ThermoelasticSolver(cfg)
        theta = s.solve_thermal(uniform_profile(0.25, 5, 4))
        exact = f(s.mesh.coords[:, 0], s.mesh.coords[:, 1])
        assert np.abs(theta - exact).max() < 1e-9 * np.abs(exact).max()

    def test_convection_exact(self):
        # -k theta'(L) = h (theta(L) - t_inf), theta(0) = 0: theta = h t_inf x / (k + h L)
        h, t_inf, L, pair = 150.0, 80.0, 0.8, MATERIALS["Ni/Al2O3"]
        cfg = ProblemConfig(
            L=L, H=0.4, nx=6, ny=3, materials=pair, mech=simple_mech(),
            thermal=ThermalBCSet(left=Dirichlet(0.0), right=Convection(h, t_inf)),
            mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        theta = s.solve_thermal(uniform_profile(1.0, 6, 3))
        k = pair.ceramic.k
        exact = h * t_inf * s.mesh.coords[:, 0] / (k + h * L)
        assert np.abs(theta - exact).max() < 1e-9 * np.abs(exact).max()

    def test_dirichlet_corner_takes_the_later_edge(self):
        # a corner shared by two Dirichlet edges keeps the value of the later edge
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=3, ny=3, materials=MATERIALS["Al/ZrO2"], mech=simple_mech(),
            thermal=ThermalBCSet(left=Dirichlet(0.0), top=Dirichlet(100.0)), mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        theta = s.solve_thermal(uniform_profile(0.5, 3, 3))
        assert theta[s.mesh.corner_node("top_left")] == 100.0
        assert theta[s.mesh.corner_node("bottom_left")] == 0.0
        table = dict(zip(s.dirichlet_nodes.tolist(), s.dirichlet_vals.tolist()))
        assert table[s.mesh.corner_node("top_left")] == 100.0

    def test_singular_without_temperature_fixing(self):
        with pytest.raises(SingularSystem):
            cfg = ProblemConfig(
                L=1.0, H=1.0, nx=2, ny=2, materials=MATERIALS["Al/ZrO2"],
                mech=simple_mech(),
                thermal=ThermalBCSet(),
                mode="plane_stress")
            ThermoelasticSolver(cfg)

    def test_no_thermal_bcs_raises_and_uniform_change_still_runs(self):
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=2, ny=2, materials=MATERIALS["Al/ZrO2"], mech=simple_mech(),
            thermal=None, uniform_delta_theta=10.0)
        s = ThermoelasticSolver(cfg)
        prof = uniform_profile(0.5, 2, 2)
        with pytest.raises(SingularSystem):
            s.solve_thermal(prof)
        with pytest.raises(SingularSystem):
            s.thermal_system(prof)
        assert np.all(s.run(prof).nodal_temperature == 10.0)

    def test_thermal_bcs_with_a_uniform_change_are_rejected(self):
        # run() took the uniform change and ignored the thermal BCs, and a dataset row
        # of such a config lost its temperature grid
        with pytest.raises(ValueError, match="need exactly one of thermal BCs and a uniform"):
            replace(problems.problem2(), uniform_delta_theta=-700.0)
        with pytest.raises(ValueError, match="need exactly one of thermal BCs and a uniform"):
            replace(problems.problem1(), uniform_delta_theta=None)

    def test_stiffness_symmetry(self):
        cfg = problems.problem2()
        s = ThermoelasticSolver(cfg)
        prof = problems.power_law_reference(cfg, 2.0, "y")
        K, _ = s.thermal_system(prof)
        d = K - K.T
        assert abs(d).max() < 1e-9 * abs(K).max()


class TestElastic:
    def test_zero_loads_zero_displacement(self):
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=3, ny=3, materials=MATERIALS["Ni/Al2O3"],
            mech=simple_mech(), thermal=None, uniform_delta_theta=0.0)
        s = ThermoelasticSolver(cfg)
        r = s.run(uniform_profile(0.5, 3, 3))
        assert np.abs(r.nodal_displacement).max() == pytest.approx(0.0, abs=1e-18)
        assert r.sigma_e_max == pytest.approx(0.0, abs=1e-9)

    def test_top_traction_patch(self):
        # u2 = 0 on the bottom edge, normal traction T on the top: syy = T everywhere
        T = 3.0e6
        cfg = ProblemConfig(
            L=0.5, H=1.0, nx=2, ny=4, materials=MATERIALS["Al/ZrO2"],
            mech=MechBCSet(
                edges=(EdgeConstraint("bottom", "u2"),),
                points=(PointConstraint("bottom_left", "u1"),),
                tractions=(EdgeTraction("top", ty=T),)),
            thermal=None, uniform_delta_theta=0.0, mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        prof = uniform_profile(0.3, 2, 4)
        theta = np.zeros(s.mesh.n_nodes)
        stress = s.gauss_stress(prof, s.solve_elastic(prof, theta), theta)
        assert np.abs(stress["syy"] - T).max() < 1e-8 * T
        assert np.abs(stress["sxx"]).max() < 1e-8 * T
        assert np.abs(stress["sxy"]).max() < 1e-8 * T

    def test_fully_clamped_uniform_heating_is_hydrostatic(self):
        # u = 0 on the whole boundary + uniform dT: zero strain, so the in-plane
        # stress is sxx = syy = -beta dT, sxy = 0, and its effective stress with
        # sigma_zz taken as zero is beta dT = E alpha dT / (1 - 2 nu)
        metal = MATERIALS["Ni/Al2O3"].metal
        edges = tuple(EdgeConstraint(e, c) for e in ("left", "right", "bottom", "top")
                      for c in ("u1", "u2"))
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=3, ny=3, materials=MATERIALS["Ni/Al2O3"],
            mech=MechBCSet(edges=edges), thermal=None,
            uniform_delta_theta=60.0, mode="plane_strain")
        r = ThermoelasticSolver(cfg).run(uniform_profile(0.0, 3, 3))
        expect = metal.E * metal.alpha * 60.0 / (1.0 - 2.0 * metal.nu)
        np.testing.assert_allclose(r.gauss_effective_stress, expect, rtol=1e-9)

    @pytest.mark.parametrize("mech", [
        MechBCSet(),
        MechBCSet(edges=(EdgeConstraint("left", "u1"),)),  # a vertical translation is free
        MechBCSet(points=(PointConstraint("bottom_left", "u1"),  # a rotation is free
                          PointConstraint("bottom_left", "u2"))),
    ], ids=["unconstrained", "u1-edge-only", "two-dof-pin"])
    def test_under_constrained_raises(self, mech):
        # a thermal load is self-equilibrated, so the rank-deficient factor of the last two
        # passes every check of the solve on this x-graded plate: only the constraint rule
        # catches them
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=4, ny=4, materials=MATERIALS["Al/ZrO2"],
            mech=mech, thermal=None, uniform_delta_theta=10.0)
        prof = np.tile(np.linspace(0.0, 1.0, 5)[:, None], (1, 5))
        with pytest.raises(SingularSystem, match="rigid-body mode free"):
            ThermoelasticSolver(cfg).run(prof)


def _singular_factor(x):
    raise RuntimeError("Factor is exactly singular")


class TestConstrainedSolveChecks:
    """A SuperLU factor whose solve fails, gives non-finite values or misses the
    residual tolerance raises SingularSystem from both fields' solves."""

    FAULTS = {
        "singular-factor": (_singular_factor, "exactly singular"),
        "non-finite": (lambda x: np.full_like(x, np.nan), "non-finite"),
        "inexact": (lambda x: x * (1.0 + 1e-6), r"residual .* above tolerance"),
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_a_bad_solve_raises(self, fault, monkeypatch):
        spoil, match = self.FAULTS[fault]
        real = fem.spla.splu
        monkeypatch.setattr(fem.spla, "splu", lambda *a, **kw: SimpleNamespace(
            solve=lambda rhs: spoil(real(*a, **kw).solve(rhs))))
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=2, ny=2, materials=MATERIALS["Al/ZrO2"], mech=simple_mech(),
            thermal=ThermalBCSet(left=Dirichlet(0.0), right=Dirichlet(100.0)))
        s, prof = ThermoelasticSolver(cfg), uniform_profile(0.5, 2, 2)
        with pytest.raises(SingularSystem, match=match):
            s.solve_thermal(prof)
        with pytest.raises(SingularSystem, match=match):
            s.solve_elastic(prof, np.full(s.mesh.n_nodes, 10.0))


class TestVerificationSuite:
    """Each analytic oracle of the FEM is written once, in ``fgmopt.verification``."""

    @pytest.mark.parametrize("check", verification.ALL_CHECKS, ids=lambda c: c.__name__)
    def test_check_passes(self, check):
        c = check()
        assert c.passed, f"{c.name}: measured {c.measured:.3e}, tolerance {c.tolerance:.0e}"


class TestEffectiveStress:
    def test_hydrostatic_is_zero(self):
        # with sigma_zz = 0 an equibiaxial in-plane state is the hydrostatic
        # 5*I plus a uniaxial -5 along z, so its effective stress is 5
        assert effective_stress(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert effective_stress(5.0, 5.0, 0.0) == pytest.approx(5.0, rel=1e-12)
        assert effective_stress_tensor(3.7 * np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_uniaxial(self):
        assert effective_stress(-4.2e6, 0.0, 0.0) == pytest.approx(4.2e6)

    def test_pure_shear(self):
        tau = 1.3e6
        assert effective_stress(0.0, 0.0, tau) == pytest.approx(math.sqrt(3) * tau)

    def test_tensor_form_matches_components(self):
        rng = make_rng(6)
        sxx, syy, sxy = rng.normal(size=3)
        t = np.array([[sxx, sxy, 0.0], [sxy, syy, 0.0], [0.0, 0.0, 0.0]])
        assert effective_stress_tensor(t) == pytest.approx(
            float(effective_stress(sxx, syy, sxy)), rel=1e-12)


def assemble_coo(blocks, n):
    """CSR sum of (per-row node or dof ids, per-row element matrices) blocks, via COO."""
    rows, cols, vals = [], [], []
    for idx, mats in blocks:
        k = idx.shape[1]
        rows.append(np.repeat(idx, k, axis=1).ravel())
        cols.append(np.tile(idx, (1, k)).ravel())
        vals.append(np.broadcast_to(mats, (len(idx), k, k)).ravel())
    coo = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))
    return coo.tocsr()


def dense_reduced_solve(K, f, fixed, fixed_vals):
    """K[free][:, free] x = f[free] - K[free][:, fixed] g, solved densely."""
    free = np.setdiff1d(np.arange(f.size), fixed)
    K_free = K[free]
    x = np.empty(f.size)
    x[fixed] = fixed_vals
    x[free] = np.linalg.solve(K_free[:, free].toarray(), f[free] - K_free[:, fixed] @ fixed_vals)
    return x


def scatter(n, idx, vals):
    return np.bincount(idx.ravel(), np.broadcast_to(vals, idx.shape).ravel(), minlength=n)


class TestReducedAssembly:
    """The solver's precomputed reduced system against an assembly of the full
    matrix, slicing and a dense solve, with non-zero prescribed values."""

    L, H, NX, NY, H_CONV, TX, TY = 0.6, 0.4, 4, 3, 300.0, 1.0e6, -4.0e6
    PAIR = MATERIALS["Ni/Al2O3"]

    def system(self):
        """(solver, random profile, its ceramic fraction at the Gauss points)."""
        cfg = ProblemConfig(
            L=self.L, H=self.H, nx=self.NX, ny=self.NY, materials=self.PAIR,
            thermal=ThermalBCSet(left=Dirichlet(lambda x, y: 50.0 + 200.0 * y),
                                 right=Convection(self.H_CONV, t_inf=20.0)),
            heat_source=2.0e5,
            mech=MechBCSet(edges=(EdgeConstraint("left", "u1", 3.0e-5),),
                           points=(PointConstraint("bottom_left", "u2"),),
                           tractions=(EdgeTraction("top", tx=self.TX, ty=self.TY),)),
            mode="plane_strain")
        s = ThermoelasticSolver(cfg)
        prof = make_rng(5).uniform(0.0, 1.0, (self.NX + 1, self.NY + 1))
        return s, prof, s.phi_at_gauss(prof)

    def test_thermal_matches_dense_oracle(self):
        s, prof, phi = self.system()
        k = self.PAIR.blend("k", phi)
        ke = np.einsum("eg,g,gia,gib->eab", k, s.gauss_w, s.gauss_B, s.gauss_B)
        enodes, half = s.mesh.edge_conn("right")
        conv = self.H_CONV * half * np.einsum("g,ga,gb->ab", s.edge_w, s.edge_N, s.edge_N)
        K = assemble_coo([(s.mesh.conn, ke), (enodes, conv)], s.mesh.n_nodes)
        _, f = s.thermal_system(prof)  # the load vector: heat source and convection
        expect = dense_reduced_solve(K, f, s.dirichlet_nodes, s.dirichlet_vals)
        theta = s.solve_thermal(prof)
        assert np.abs(theta - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_elastic_matches_dense_oracle(self):
        # the pair's own plane-strain Lame constants at each Gauss point, not elast_D or elast_P
        s, prof, phi = self.system()
        theta = s.solve_thermal(prof)
        E, nu, alpha = self.PAIR.blend("E", phi), self.PAIR.metal.nu, self.PAIR.blend("alpha", phi)
        lam, mu = E * nu / ((1 + nu) * (1 - 2 * nu)), E / (2 * (1 + nu))
        D = np.zeros(E.shape + (3, 3))
        D[..., :2, :2] = lam[..., None, None]
        D[..., 0, 0] += 2 * mu
        D[..., 1, 1] += 2 * mu
        D[..., 2, 2] = mu
        ke = np.einsum("g,gia,egij,gjb->eab", s.gauss_w, s.elast_B, D, s.elast_B)
        n = 2 * s.mesh.n_nodes
        bt = E * alpha / (1 - 2 * nu) * (theta[s.mesh.conn] @ s.gauss_N.T)
        f = scatter(n, s.elem_dofs, np.einsum("g,eg,gia,i->ea", s.gauss_w, bt, s.elast_B, [1, 1, 0]))
        enodes, half = s.mesh.edge_conn("top")
        load = half * (s.edge_w @ s.edge_N)
        f += scatter(n, 2 * enodes, self.TX * load) + scatter(n, 2 * enodes + 1, self.TY * load)
        expect = dense_reduced_solve(assemble_coo([(s.elem_dofs, ke)], n), f,
                                     s.fixed_dofs, s.fixed_vals)
        u = s.solve_elastic(prof, theta)
        assert np.abs(u.ravel() - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_each_field_numbers_every_free_dof_once_in_node_order(self):
        s, prof, _ = self.system()
        s.solve_elastic(prof, s.solve_thermal(prof))
        rank = s._node_rank
        assert np.array_equal(np.sort(rank), np.arange(s.mesh.n_nodes))
        for pattern, per_node in ((s._thermal_pattern, 1), (s._mech_pattern, 2)):
            free = pattern.free
            everything = np.concatenate([free, pattern.fixed])
            assert np.array_equal(np.sort(everything), np.arange(per_node * s.mesh.n_nodes))
            assert np.all(np.diff(per_node * rank[free // per_node] + free % per_node) > 0)

    def test_node_order_is_built_once_on_the_first_solve_and_shared(self, monkeypatch):
        calls = []
        real = fem._dissection_rank
        monkeypatch.setattr(fem, "_dissection_rank", lambda mesh: calls.append(1) or real(mesh))
        s, prof, _ = self.system()
        # set-up builds no order and no pattern: solver construction stays as cheap as before
        assert not {"_node_rank", "_thermal_pattern", "_mech_pattern"} & set(vars(s))
        s.run(prof)
        s.run(prof)
        assert len(calls) == 1
        assert {"_node_rank", "_thermal_pattern", "_mech_pattern"} <= set(vars(s))
        assert s._node_rank.base is None  # its own array, not a view that keeps another alive

    def test_phi_at_gauss_matches_interpolate(self):
        # the solver's weights are taken at the exact Gauss coordinates, the oracle's
        # from the mesh's Gauss points, so the two differ in the last bits only
        for s in (self.system()[0], ThermoelasticSolver(unequal_plate())):
            m = s.mesh
            prof = make_rng(9).uniform(0.0, 1.0, (m.nx + 1, m.ny + 1))
            xy = m.gauss_points().reshape(-1, 2)
            expect = interpolate(prof, xy[:, 0], xy[:, 1], m.L, m.H).reshape(m.n_elems, 9)
            np.testing.assert_allclose(s.phi_at_gauss(prof), expect, rtol=0.0, atol=1e-15)

    @staticmethod
    def solve_entries(s, prof):
        """Every public solver entry that samples a profile, as a function of the profile."""
        theta = s.solve_thermal(prof)
        u = s.solve_elastic(prof, theta)
        return (s.run, s.solve_thermal, s.thermal_system, s.v_ca, s.phi_at_gauss,
                lambda p: s.solve_elastic(p, theta), lambda p: s.gauss_stress(p, u, theta))

    @pytest.mark.parametrize("shape", [(8, 3), (4, 5)], ids=["other-grid", "transposed-grid"])
    def test_a_profile_off_the_plates_vertex_grid_is_rejected(self, shape):
        # the transposed grid has as many nodes as the plate's 5 x 4 vertices
        s, prof, _ = self.system()
        bad = make_rng(9).uniform(0.0, 1.0, shape)
        for solve in self.solve_entries(s, prof):
            with pytest.raises(DimensionMismatch, match=rf"{shape[0]} x {shape[1]} nodes.* 5 x 4$"):
                solve(bad)

    def test_a_profile_value_outside_0_1_is_rejected_by_every_solve(self):
        s, prof, _ = self.system()
        entries = self.solve_entries(s, prof)
        for value in (2.0, np.nan, -0.5, 1.0 + 2 * BOUND_TOL, -2 * BOUND_TOL):
            bad = prof.copy()
            bad[2, 1] = value
            for solve in entries:
                with pytest.raises(PhiOutOfRange, match=r"must lie in \[0, 1\]$"):
                    solve(bad)

    def test_a_grid_within_tolerance_solves_to_the_bits_of_its_clipped_copy(self):
        s, prof, _ = self.system()
        inside = prof.copy()
        inside[0, 0], inside[2, 1], inside[-1, -1] = -BOUND_TOL, -0.5 * BOUND_TOL, 1.0 + BOUND_TOL
        given = inside.copy()
        clipped = np.clip(inside, 0.0, 1.0)
        assert clipped[0, 0] == clipped[2, 1] == 0.0 and clipped[-1, -1] == 1.0
        got, want = s.run(inside), s.run(clipped)
        for name in ("nodal_temperature", "nodal_displacement", "gauss_effective_stress",
                     "temperature_grid"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.summary() == want.summary()
        for sample in (s.phi_at_gauss, s.v_ca, lambda p: s.thermal_system(p)[0].data):
            assert np.asarray(sample(inside)).tobytes() == np.asarray(sample(clipped)).tobytes()
        # the caller's array is neither clipped nor copied: the result holds it as given
        assert inside.tobytes() == given.tobytes() and inside.flags.writeable
        assert got.profile is inside


def verification_config(check):
    """The config of the one solver a verification check builds, caught as it runs."""
    configs = []
    with mock.patch.object(verification, "ThermoelasticSolver",
                           lambda cfg: configs.append(cfg) or ThermoelasticSolver(cfg)):
        check()
    (config,) = configs
    return config


PATTERN_CONFIGS = {
    "problem1": problems.problem1,
    "problem2": problems.problem2,
    "problem1-reference": lambda: problems.reference_config("problem1"),
    "problem2-reference": lambda: problems.reference_config("problem2"),
    "mixed-5x4": lambda: TestReducedAssembly().system()[0].config,
    # no Dirichlet node, so the thermal pattern has no discard slot
    "convection-only": lambda: ProblemConfig(
        L=0.3, H=0.2, nx=4, ny=3, materials=MATERIALS["Al/ZrO2"], mech=simple_mech(),
        thermal=ThermalBCSet(left=Convection(50.0, t_inf=300.0), top=Convection(20.0))),
    # every boundary dof fixed, by callables
    "displacement-patch": lambda: verification_config(verification.check_displacement_patch),
    # point constraints only
    "free-expansion": lambda: verification_config(verification.check_free_expansion),
}


def assert_pattern_is_oracles(pattern, idx, per_node, rank, fixed, const=None):
    """The node-pair pattern's six arrays equal the dof-key oracle's, dtype included."""
    free = free_in_node_order(rank, fixed, per_node)
    slot, rows, ptr, base = dof_pattern(idx, fixed, free, const)
    expect = {"slot": slot, "rows": rows, "ptr": ptr, "base": base, "free": free, "fixed": fixed}
    for name, want in expect.items():
        got = np.asarray(getattr(pattern, name))
        assert got.dtype == np.asarray(want).dtype, name
        assert np.array_equal(got, want), name


class TestNestedDissection:
    """``_dissection_rank`` numbers the two halves of a block of nodes, then the element
    edge line between them; SuperLU's fill in that order is guarded."""

    @pytest.mark.parametrize("nx, ny, last", [
        (1, 1, None),  # no edge line splits one element: its nodes go row by row
        (1, 5, ("row", 4)),
        (5, 1, ("column", 4)),
        (4, 3, ("column", 4)),
        (40, 40, ("column", 40)),  # the columns are split first when the sides are equal
    ], ids=["1x1", "1x5", "5x1", "4x3", "40x40"])
    def test_ranks_every_node_once_and_the_middle_edge_line_last(self, nx, ny, last):
        mesh = fem.Mesh.rectangle(nx, ny, 1.0, 1.0)
        rank = fem._dissection_rank(mesh)
        assert np.array_equal(np.sort(rank), np.arange(mesh.n_nodes))
        if last is None:
            assert np.array_equal(rank, np.arange(mesh.n_nodes))
        else:
            grid = rank.reshape(2 * ny + 1, 2 * nx + 1)  # by node row, then column
            line = grid[last[1]] if last[0] == "row" else grid[:, last[1]]
            assert np.array_equal(line, mesh.n_nodes - line.size + np.arange(line.size))

    @pytest.mark.parametrize("name, most", [
        ("problem1", [1_500_000]),  # 1,669,270 in SuperLU's minimum-degree order
        ("problem2", [75_992, 293_586]),  # thermal, elastic: that order's counts
    ], ids=["problem1", "problem2"])
    def test_factor_fill(self, name, most, monkeypatch):
        # SuperLU's own count of the stored factor: L.nnz + U.nnz drop exact zeros, so
        # they move with the values
        nnz, real = [], fem.spla.splu

        def splu(*args, **kwargs):
            lu = real(*args, **kwargs)
            nnz.append(lu.nnz)
            return lu

        monkeypatch.setattr(fem.spla, "splu", splu)
        cfg = getattr(problems, name)()
        ThermoelasticSolver(cfg).run(problems.power_law_reference(cfg, 2.0, "xy"))
        assert len(nnz) == len(most) and all(n <= m for n, m in zip(nnz, most)), nnz


class TestPatternMatchesDofOracle:
    @pytest.mark.parametrize("name", list(PATTERN_CONFIGS))
    def test_field_patterns(self, name):
        s = ThermoelasticSolver(PATTERN_CONFIGS[name]())
        fields = [(s._mech_pattern, s.elem_dofs, 2, s.fixed_dofs, None)]
        if s.config.thermal is not None:
            fields.append((s._thermal_pattern, s.mesh.conn, 1, s.dirichlet_nodes, s._conv))
            if s.dirichlet_nodes.size == 0:
                assert s._thermal_pattern.rows.size == s._thermal_pattern.ptr[-1]
        for pattern, idx, per_node, fixed, const in fields:
            assert_pattern_is_oracles(pattern, idx, per_node, s._node_rank, fixed, const)

    @pytest.mark.parametrize("name", ["problem1", "problem2"])
    def test_identity_order_patterns(self, name):
        # the node graph in mesh order, and thermal_system's pattern with convection
        s = ThermoelasticSolver(PATTERN_CONFIGS[name]())
        conn, order, none = s.mesh.conn, np.arange(s.mesh.n_nodes), np.empty(0, dtype=np.int64)
        blocks = [None] if s.config.thermal is None else [None, s._conv]
        for const in blocks:
            pattern = fem._ReducedPattern(conn, 1, order, none, const=const)
            assert_pattern_is_oracles(pattern, conn, 1, order, none, const)

    def test_problem1_elastic_pattern_peak_memory(self):
        # sorting every dof-pair key took a 27.6 MiB transient here; node pairs take about 8
        s = ThermoelasticSolver(problems.problem1())
        s._node_rank
        assert traced_peak(lambda: s._mech_pattern) < 12 * 2**20

    def test_problem1_node_order_peak_memory(self):
        # a minimum-degree order from an incomplete SuperLU factor of the node graph took
        # 7.3 MiB here
        s = ThermoelasticSolver(problems.problem1())
        assert traced_peak(lambda: s._node_rank) < 2 * 2**20


class TestChunkedAssembly:
    """``assemble`` builds the element matrices a chunk at a time and adds each chunk
    into the values; one bincount of the whole table is the reference."""

    # problem 1's 1,600 elements are no multiple of a chunk's rows (202 elastic, 809
    # thermal), and the 4 x 3 element plate's 12 are fewer than one chunk
    @pytest.mark.parametrize("name", ["problem1", "problem2", "mixed-5x4"])
    def test_values_match_one_bincount(self, name):
        s = ThermoelasticSolver(PATTERN_CONFIGS[name]())
        prof = make_rng(4).uniform(0.0, 1.0, (s.mesh.nx + 1, s.mesh.ny + 1))
        E, _ = s._elastic_at_gauss(prof, np.zeros(s.mesh.n_nodes))
        k = s.config.materials.blend("k", s.phi_at_gauss(prof))
        assert E.shape == k.shape == (s.mesh.n_elems, 9) and s.elast_P.shape == (9, 324)
        thermal = (s._thermal_pattern if s.config.thermal is not None else  # on the node graph
                   fem._ReducedPattern(s.mesh.conn, 1, s._node_rank, np.empty(0, dtype=np.int64)))
        for pattern, coef, table in ((s._mech_pattern, E, s.elast_P),
                                     (thermal, k, s.therm_M)):
            Kff, Kfc = pattern.assemble(coef, table)
            want = np.bincount(pattern.slot, weights=(coef @ table).ravel(),
                               minlength=pattern.rows.size) + pattern.base
            got = np.concatenate([Kff.data, Kfc.data])  # the discard slot dropped
            err = np.abs(got - want[:got.size]).max()
            assert err <= 1e-13 * np.abs(want).max()

    def test_problem1_warm_solve_peak_memory(self):
        # the whole (1600, 324) element table and an intp copy of slot took 11.5 MiB here
        s = ThermoelasticSolver(problems.problem1())
        prof = problems.power_law_reference(s.config, 2.0, "xy")
        s.run(prof)
        assert traced_peak(lambda: s.run(prof)) < 6 * 2**20


class TestPostprocessing:
    def test_vca_matches_profile_average(self):
        cfg = problems.problem2()
        s = ThermoelasticSolver(cfg)
        rng = make_rng(8)
        grid = rng.uniform(0, 1, (cfg.nx + 1, cfg.ny + 1))
        wx, wy = np.ones(cfg.nx + 1), np.ones(cfg.ny + 1)  # trapezoid weights
        wx[[0, -1]] = wy[[0, -1]] = 0.5
        assert s.v_ca(grid) == pytest.approx(wx @ grid @ wy / (cfg.nx * cfg.ny), abs=1e-12)

    def test_max_metal_temperature_masks_pure_ceramic(self):
        cfg = problems.problem2()
        s = ThermoelasticSolver(cfg)
        prof = problems.power_law_reference(cfg, 1.0, "y")  # top row phi = 1
        r = s.run(prof)
        grid_t = s.temperature_on_profile_grid(r.nodal_temperature)
        metal_max = grid_t[prof < 1.0].max()
        assert r.max_metal_temperature == pytest.approx(metal_max)
        assert r.max_metal_temperature < grid_t.max()  # hottest nodes are ceramic

    def test_temperature_on_profile_grid_is_theta_at_the_vertices(self):
        for cfg in (problems.problem2(), unequal_plate()):
            s = ThermoelasticSolver(cfg)
            r = s.run(problems.power_law_reference(cfg, 2.0, "xy"))
            # the mesh node nearest to each profile-grid point, in grid.ravel() order
            pts = grid_points(cfg.L, cfg.H, cfg.nx, cfg.ny)
            nodes = [np.argmin(np.hypot(*(s.mesh.coords - p).T)) for p in pts]
            assert np.array_equal(s.mesh.vertex_nodes.ravel(), nodes)
            assert np.array_equal(s.mesh.coords[s.mesh.vertex_nodes.ravel()], pts)
            assert r.temperature_grid.shape == (cfg.nx + 1, cfg.ny + 1)
            assert np.array_equal(r.temperature_grid.ravel(), r.nodal_temperature[nodes])
            assert np.array_equal(s.temperature_on_profile_grid(r.nodal_temperature),
                                  r.temperature_grid)

    def test_mesh_refinement_trend(self):
        # one field on every mesh, a 10 x 10 three-layer profile refined exactly (it is
        # bilinear): step halving shrinks the change in max effective stress
        cfg = problems.reference_config("problem1")
        coarse = problems.three_layer_power_law(replace(cfg, nx=10, ny=10), 2.0)
        vals = []
        for n in (10, 20, 40):
            pts = grid_points(cfg.L, cfg.H, n, n)
            fine = interpolate(coarse, pts[:, 0], pts[:, 1], cfg.L, cfg.H).reshape(n + 1, n + 1)
            r = ThermoelasticSolver(replace(cfg, nx=n, ny=n)).run(fine)
            vals.append(r.sigma_e_max)
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        print(f"refinement sigma_e_max: {[f'{v/1e6:.2f}' for v in vals]} MPa, deltas {d1/1e6:.3f}, {d2/1e6:.3f}")
        assert d2 < d1

    @staticmethod
    def csv_writer_bytes(xs, ys, vals) -> bytes:
        """The oracle: csv.writer rows of repr() floats under an x,y,value header."""
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["x", "y", "value"])
        for x, y, v in zip(xs, ys, vals):
            w.writerow([repr(float(x)), repr(float(y)), repr(float(v))])
        return buf.getvalue().encode()

    def assert_result_files(self, r, out):
        write_result_files(r, out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sigma_e_max"] == pytest.approx(r.sigma_e_max)
        m = r.mesh
        g = m.gauss_points().reshape(-1, 2)
        pts = grid_points(m.L, m.H, m.nx, m.ny)
        columns = {
            "temperature.csv": (m.coords[:, 0], m.coords[:, 1], r.nodal_temperature),
            "effective_stress.csv": (g[:, 0], g[:, 1], r.gauss_effective_stress.ravel()),
            "volume_fraction.csv": (pts[:, 0], pts[:, 1], r.profile.ravel()),
        }
        for name, (xs, ys, vals) in columns.items():
            assert (out / name).read_text().splitlines()[0] == "x,y,value"
            assert (out / name).read_bytes() == self.csv_writer_bytes(xs, ys, vals)

    def test_result_files(self, tmp_path):
        # the bytes are those of csv.writer with repr() floats: twice through one solver
        # (the second write reuses the first one's x/y text), and through solvers of two
        # other meshes and plates, one of them the 6 x 3 plate
        cfg = problems.problem2()
        solver = ThermoelasticSolver(cfg)
        runs = [
            solver.run(problems.power_law_reference(cfg, 1.0, "y")),
            solver.run(uniform_profile(0.25, cfg.nx, cfg.ny)),
        ]
        for other in (replace(cfg, L=0.5, nx=7, ny=5), unequal_plate()):
            runs.append(ThermoelasticSolver(other).run(
                problems.power_law_reference(other, 2.0, "xy")))
        for i, r in enumerate(runs):
            self.assert_result_files(r, tmp_path / str(i))
        assert len((tmp_path / "0" / "temperature.csv").read_text().splitlines()) == 41 * 41 + 1

    def test_gauss_points_are_the_solvers(self):
        cfg = problems.problem2()
        mesh = fem.Mesh.rectangle(7, 5, 0.5, cfg.H)
        xy = mesh.gauss_points()
        assert xy.shape == (35, 9, 2)
        # point g = 3 j + i sits at (xi_i, eta_j) of element 0's parametric square
        t = fem.GAUSS_T
        hx, hy = 0.5 / 7, cfg.H / 5
        for g in range(9):
            j, i = divmod(g, 3)
            np.testing.assert_allclose(xy[0, g], ((t[i] + 1) * hx / 2, (t[j] + 1) * hy / 2),
                                       rtol=1e-15)

    def test_solver_determinism(self):
        cfg = problems.problem2()
        prof = problems.power_law_reference(cfg, 2.0, "xy")
        a = ThermoelasticSolver(cfg).run(prof)
        b = ThermoelasticSolver(cfg).run(prof)
        assert np.array_equal(a.nodal_temperature, b.nodal_temperature)
        assert np.array_equal(a.nodal_displacement, b.nodal_displacement)
        assert a.sigma_e_max == b.sigma_e_max
