import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fgmopt.errors import DimensionMismatch, PhiOutOfRange, SingularSystem
from fgmopt.fem import (
    MATERIALS,
    Adiabatic,
    Convection,
    Dirichlet,
    EdgeConstraint,
    EdgeTraction,
    MechBCSet,
    PointConstraint,
    ProblemConfig,
    ThermalBCSet,
    ThermoelasticSolver,
    effective_stress,
    material_at,
    shape9,
    write_result_files,
)
from fgmopt.profiles import Profile2D, grid_points, interpolate
from fgmopt.rng import make_rng
from fgmopt.verification import check_energy_balance
from fgmopt import fem, problems


def uniform_profile(phi, nx, ny):
    return Profile2D(np.full((nx + 1, ny + 1), float(phi)))


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
        pair = MATERIALS["Al/ZrO2"]
        metal = material_at(pair, 1.0)
        assert metal["E"] == pytest.approx(70.0e9)
        assert metal["k"] == pytest.approx(233.0)
        ceramic = material_at(pair, 0.0)
        assert ceramic["E"] == pytest.approx(200.0e9)
        assert ceramic["k"] == pytest.approx(2.2)

    def test_linear_midpoint(self):
        blend = material_at(MATERIALS["Ni/Al2O3"], 0.5)
        assert blend["E"] == pytest.approx((199.5e9 + 393.0e9) / 2)

    def test_phi_out_of_range(self):
        with pytest.raises(PhiOutOfRange):
            material_at(MATERIALS["Al/ZrO2"], 1.2)

    def test_vectorized(self):
        phi = np.linspace(0, 1, 7)
        out = material_at(MATERIALS["Al/ZrO2"], phi)
        assert out["k"].shape == (7,)
        assert np.all(out["k"] > 0)


class TestShapeFunctions:
    def test_partition_of_unity_random(self):
        rng = make_rng(0)
        for _ in range(10_000):
            xi, eta = rng.uniform(-1, 1, 2)
            n, dxi, deta = shape9(xi, eta)
            assert abs(n.sum() - 1.0) < 1e-13
            assert abs(dxi.sum()) < 1e-12 and abs(deta.sum()) < 1e-12

    def test_kronecker_delta_at_nodes(self):
        coords = [(-1.0, -1.0), (0.0, -1.0), (1.0, -1.0),
                  (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0),
                  (-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)]
        for a, (xi, eta) in enumerate(coords):
            n, _, _ = shape9(xi, eta)
            expect = np.zeros(9)
            expect[a] = 1.0
            np.testing.assert_allclose(n, expect, atol=1e-14)


class TestThermal:
    def test_linear_conduction_exact(self):
        cfg = ProblemConfig(
            L=1.0, H=0.5, nx=8, ny=4, materials=MATERIALS["Al/ZrO2"],
            mech=simple_mech(),
            thermal=ThermalBCSet(left=Dirichlet(0.0), right=Dirichlet(100.0)),
            mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        theta = s.solve_thermal(uniform_profile(0.0, 8, 4))
        exact = 100.0 * s.mesh.coords[:, 0]
        assert np.abs(theta - exact).max() < 1e-9

    def test_uniform_source_parabola(self):
        Q, k = 1.0e4, MATERIALS["Al/ZrO2"].metal.k
        cfg = ProblemConfig(
            L=1.0, H=0.25, nx=20, ny=2, materials=MATERIALS["Al/ZrO2"],
            mech=simple_mech(), heat_source=Q,
            thermal=ThermalBCSet(left=Dirichlet(0.0), right=Dirichlet(0.0)),
            mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        theta = s.solve_thermal(uniform_profile(0.0, 20, 2))
        x = s.mesh.coords[:, 0]
        exact = Q * x * (1.0 - x) / (2 * k)
        assert np.abs(theta - exact).max() / exact.max() < 1e-6

    def test_two_material_slab_resistance_oracle(self):
        # phi steps from 0 to 1 between nodes 19 and 20 of a 40-cell grid;
        # the conductivity ramps linearly inside that one cell, so the exact
        # 1D resistance includes a log term for the ramp
        n = 40
        vals = np.where(np.arange(n + 1) <= 19, 0.0, 1.0)
        prof = Profile2D(np.tile(vals[:, None], (1, 3)))
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

    def test_energy_balance(self):
        assert check_energy_balance().passed

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

    def test_displacement_patch_constant_stress(self):
        # linear displacement BCs on the full boundary -> constant stress field
        a11, a12, a21, a22 = 1e-4, -3e-5, 2e-5, -8e-5
        u1 = lambda x, y: a11 * x + a12 * y
        u2 = lambda x, y: a21 * x + a22 * y
        edges = tuple(
            EdgeConstraint(e, c, v)
            for e in ("left", "right", "bottom", "top")
            for c, v in (("u1", u1), ("u2", u2))
        )
        pair = MATERIALS["Al/ZrO2"]
        cfg = ProblemConfig(
            L=0.3, H=0.2, nx=4, ny=3, materials=pair,
            mech=MechBCSet(edges=edges), thermal=None, uniform_delta_theta=0.0,
            mode="plane_strain")
        s = ThermoelasticSolver(cfg)
        prof = uniform_profile(1.0, 4, 3)  # pure ceramic
        theta = np.zeros(s.mesh.n_nodes)
        u = s.solve_elastic(prof, theta)
        stress = s.gauss_stress(prof, u, theta)
        E, nu = pair.ceramic.E, pair.ceramic.nu
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        mu = E / (2 * (1 + nu))
        exx, eyy, gxy = a11, a22, a12 + a21
        sxx = lam * (exx + eyy) + 2 * mu * exx
        syy = lam * (exx + eyy) + 2 * mu * eyy
        sxy = mu * gxy
        for key, val in (("sxx", sxx), ("syy", syy), ("sxy", sxy)):
            assert np.abs(stress[key] - val).max() <= 1e-8 * abs(val)

    def test_traction_patch_uniaxial(self):
        pair = MATERIALS["Ni/Al2O3"]
        T = 2.5e6
        cfg = ProblemConfig(
            L=1.0, H=0.25, nx=6, ny=2, materials=pair,
            mech=MechBCSet(
                edges=(EdgeConstraint("left", "u1"),),
                points=(PointConstraint("bottom_left", "u2"),),
                tractions=(EdgeTraction("right", tx=T),),
            ),
            thermal=None, uniform_delta_theta=0.0, mode="plane_stress")
        s = ThermoelasticSolver(cfg)
        prof = uniform_profile(0.0, 6, 2)
        theta = np.zeros(s.mesh.n_nodes)
        u = s.solve_elastic(prof, theta)
        stress = s.gauss_stress(prof, u, theta)
        assert np.abs(stress["sxx"] - T).max() < 1e-8 * T
        assert np.abs(stress["syy"]).max() < 1e-8 * T
        assert stress["effective"].max() == pytest.approx(T, rel=1e-8)

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

    def test_free_expansion_plane_stress(self):
        pair = MATERIALS["Ni/Al2O3"]
        dT = 50.0
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=6, ny=6, materials=pair,
            mech=MechBCSet(points=(
                PointConstraint("bottom_left", "u1"),
                PointConstraint("bottom_left", "u2"),
                PointConstraint("bottom_right", "u2"))),
            thermal=None, uniform_delta_theta=dT, mode="plane_stress")
        r = ThermoelasticSolver(cfg).run(uniform_profile(0.0, 6, 6))
        scale = pair.metal.E * pair.metal.alpha * dT
        assert r.sigma_e_max < 1e-6 * scale
        expect = pair.metal.alpha * dT * ThermoelasticSolver(cfg).mesh.coords
        assert np.abs(r.nodal_displacement - expect).max() < 1e-9

    def test_roller_constrained_expansion_oracle(self):
        # plane strain, u1 = 0 on both vertical edges, horizontals free:
        # closed form sigma_e = 2 mu beta |theta| / (lam + 2 mu) (in-plane vm)
        pair = MATERIALS["Al/ZrO2"]
        dT = 80.0
        cfg = ProblemConfig(
            L=0.5, H=0.25, nx=6, ny=3, materials=pair,
            mech=MechBCSet(
                edges=(EdgeConstraint("left", "u1"), EdgeConstraint("right", "u1")),
                points=(PointConstraint("bottom_left", "u2"),)),
            thermal=None, uniform_delta_theta=dT, mode="plane_strain")
        r = ThermoelasticSolver(cfg).run(uniform_profile(1.0, 6, 3))
        E, nu, alpha = pair.ceramic.E, pair.ceramic.nu, pair.ceramic.alpha
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        mu = E / (2 * (1 + nu))
        beta = E * alpha / (1 - 2 * nu)
        eyy = beta * dT / (lam + 2 * mu)
        sxx = lam * eyy - beta * dT
        # in-plane vm of (sxx, 0, tau=0) is |sxx| = 2 mu beta dT / (lam + 2 mu)
        expect = abs(sxx)
        assert expect == pytest.approx(2 * mu * beta * dT / (lam + 2 * mu), rel=1e-12)
        assert r.sigma_e_max == pytest.approx(expect, rel=1e-6)

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

    def test_linear_gradation_compatible_strain_is_stress_free(self):
        # alpha linear through the height + free bending: thermal strain field
        # is compatible, so the in-plane stress vanishes identically
        cfg = problems.problem1()
        prof = problems.power_law_reference(cfg, 1.0, "y")
        r = ThermoelasticSolver(cfg).run(prof)
        scale = MATERIALS["Ni/Al2O3"].metal.E * MATERIALS["Ni/Al2O3"].metal.alpha * 700
        assert r.sigma_e_max < 1e-6 * scale

    def test_under_constrained_raises(self):
        cfg = ProblemConfig(
            L=1.0, H=1.0, nx=2, ny=2, materials=MATERIALS["Al/ZrO2"],
            mech=MechBCSet(), thermal=None, uniform_delta_theta=10.0)
        with pytest.raises(SingularSystem):
            ThermoelasticSolver(cfg).run(uniform_profile(0.0, 2, 2))


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
        """(solver, random profile, blended properties at its Gauss points)."""
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
        prof = Profile2D(make_rng(5).uniform(0.0, 1.0, (self.NX + 1, self.NY + 1)))
        return s, prof, material_at(self.PAIR, 1.0 - s.phi_at_gauss(prof))

    def test_thermal_matches_dense_oracle(self):
        s, prof, props = self.system()
        B = np.stack([s.gauss_bx, s.gauss_by], axis=1)  # (9 gauss, 2, 9 nodes)
        ke = np.einsum("eg,g,gia,gib->eab", props["k"], s.gauss_w, B, B)
        enodes, half = s.mesh.edge_conn("right")
        conv = self.H_CONV * half * np.einsum("g,ga,gb->ab", s.edge_w, s.edge_N, s.edge_N)
        K = assemble_coo([(s.mesh.conn, ke), (enodes, conv)], s.mesh.n_nodes)
        _, f = s.thermal_system(prof)  # the load vector: heat source and convection
        expect = dense_reduced_solve(K, f, s.dirichlet_nodes, s.dirichlet_vals)
        theta = s.solve_thermal(prof)
        assert np.abs(theta - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_elastic_matches_dense_oracle(self):
        s, prof, props = self.system()
        theta = s.solve_thermal(prof)
        E, nu, alpha = props["E"], props["nu"], props["alpha"]
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
        real = fem._minimum_degree_rank
        monkeypatch.setattr(fem, "_minimum_degree_rank", lambda mesh: calls.append(1) or real(mesh))
        s, prof, _ = self.system()
        # set-up builds no order and no pattern: solver construction stays as cheap as before
        assert not {"_node_rank", "_thermal_pattern", "_mech_pattern"} & set(vars(s))
        s.run(prof)
        s.run(prof)
        assert len(calls) == 1
        assert {"_node_rank", "_thermal_pattern", "_mech_pattern"} <= set(vars(s))
        assert s._node_rank.base is None  # not a view that keeps a SuperLU factor alive

    def test_phi_at_gauss_matches_interpolate(self):
        # the solver's weights are taken at the exact Gauss coordinates, the oracle's
        # from gauss_xy, so the two differ in the last bits only
        s, _, _ = self.system()
        prof = Profile2D(make_rng(9).uniform(0.0, 1.0, (self.NX + 1, self.NY + 1)))
        xy = s.gauss_xy.reshape(-1, 2)
        expect = interpolate(prof, xy[:, 0], xy[:, 1], self.L, self.H).reshape(s.mesh.n_elems, 9)
        np.testing.assert_allclose(s.phi_at_gauss(prof), expect, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(8, 3), (4, 5)], ids=["other-grid", "transposed-grid"])
    def test_a_profile_off_the_plates_vertex_grid_is_rejected(self, shape):
        # the transposed grid has as many nodes as the plate's 5 x 4 vertices
        s, prof, _ = self.system()
        theta = s.solve_thermal(prof)
        bad = Profile2D(make_rng(9).uniform(0.0, 1.0, shape))
        for solve in (s.run, s.solve_thermal, lambda p: s.solve_elastic(p, theta)):
            with pytest.raises(DimensionMismatch, match=rf"{shape[0]} x {shape[1]} nodes.* 5 x 4$"):
                solve(bad)


class TestPostprocessing:
    def test_vca_matches_profile_average(self):
        cfg = problems.problem2()
        s = ThermoelasticSolver(cfg)
        rng = make_rng(8)
        grid = rng.uniform(0, 1, (cfg.nx + 1, cfg.ny + 1))
        prof = Profile2D(grid)
        wx, wy = np.ones(cfg.nx + 1), np.ones(cfg.ny + 1)  # trapezoid weights
        wx[[0, -1]] = wy[[0, -1]] = 0.5
        assert s.v_ca(prof) == pytest.approx(wx @ grid @ wy / (cfg.nx * cfg.ny), abs=1e-12)

    def test_max_metal_temperature_masks_pure_ceramic(self):
        cfg = problems.problem2()
        s = ThermoelasticSolver(cfg)
        prof = problems.power_law_reference(cfg, 1.0, "y")  # top row phi = 1
        r = s.run(prof)
        grid_t = s.temperature_on_profile_grid(r.nodal_temperature)
        metal_max = grid_t[prof.grid < 1.0].max()
        assert r.max_metal_temperature == pytest.approx(metal_max)
        assert r.max_metal_temperature < grid_t.max()  # hottest nodes are ceramic

    def test_temperature_on_profile_grid_is_theta_at_the_vertices(self):
        cfg = problems.problem2()
        s = ThermoelasticSolver(cfg)
        r = s.run(problems.power_law_reference(cfg, 2.0, "xy"))
        # the mesh node nearest to each profile-grid point, in grid.ravel() order
        pts = grid_points(cfg.L, cfg.H, cfg.nx, cfg.ny)
        nodes = [np.argmin(np.hypot(*(s.mesh.coords - p).T)) for p in pts]
        assert r.temperature_grid.shape == (cfg.nx + 1, cfg.ny + 1)
        assert np.array_equal(r.temperature_grid.ravel(), r.nodal_temperature[nodes])

    def test_mesh_refinement_trend(self):
        # one field on every mesh, a 10 x 10 three-layer profile refined exactly (it is
        # bilinear): step halving shrinks the change in max effective stress
        cfg = problems.reference_config("problem1")
        coarse = problems.three_layer_power_law(replace(cfg, nx=10, ny=10), 2.0)
        vals = []
        for n in (10, 20, 40):
            pts = grid_points(cfg.L, cfg.H, n, n)
            fine = interpolate(coarse, pts[:, 0], pts[:, 1], cfg.L, cfg.H).reshape(n + 1, n + 1)
            r = ThermoelasticSolver(replace(cfg, nx=n, ny=n)).run(Profile2D(fine))
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
        g, m = r.gauss_xy.reshape(-1, 2), r.mesh
        pts = grid_points(m.L, m.H, m.nx, m.ny)
        columns = {
            "temperature.csv": (m.coords[:, 0], m.coords[:, 1], r.nodal_temperature),
            "effective_stress.csv": (g[:, 0], g[:, 1], r.gauss_effective_stress.ravel()),
            "volume_fraction.csv": (pts[:, 0], pts[:, 1], r.profile.grid.ravel()),
        }
        for name, (xs, ys, vals) in columns.items():
            assert (out / name).read_text().splitlines()[0] == "x,y,value"
            assert (out / name).read_bytes() == self.csv_writer_bytes(xs, ys, vals)

    def test_result_files(self, tmp_path):
        # the bytes are those of csv.writer with repr() floats: twice through one solver
        # (the second write reuses the first one's x/y text), and through a solver of
        # another mesh and plate
        cfg = problems.problem2()
        solver = ThermoelasticSolver(cfg)
        other = replace(cfg, L=0.5, nx=7, ny=5)
        runs = [
            solver.run(problems.power_law_reference(cfg, 1.0, "y")),
            solver.run(uniform_profile(0.25, cfg.nx, cfg.ny)),
            ThermoelasticSolver(other).run(problems.power_law_reference(other, 2.0, "xy")),
        ]
        for i, r in enumerate(runs):
            self.assert_result_files(r, tmp_path / str(i))
        assert len((tmp_path / "0" / "temperature.csv").read_text().splitlines()) == 41 * 41 + 1

    def test_gauss_points_are_the_solvers(self):
        cfg = problems.problem2()
        mesh = fem.Mesh.rectangle(7, 5, 0.5, cfg.H)
        xy = mesh.gauss_points()
        assert xy.shape == (35, 9, 2)
        assert np.array_equal(ThermoelasticSolver(replace(cfg, L=0.5, nx=7, ny=5)).gauss_xy, xy)
        # point g = 3 j + i sits at (xi_i, eta_j) of element 0's parametric square
        t = np.array([p for p, _ in fem.GAUSS_1D])
        hx, hy = 0.5 / 7, cfg.H / 5
        np.testing.assert_allclose(xy[0, :, 0], np.tile((t + 1) * hx / 2, 3), rtol=1e-15)
        np.testing.assert_allclose(xy[0, :, 1], np.repeat((t + 1) * hy / 2, 3), rtol=1e-15)

    def test_solver_determinism(self):
        cfg = problems.problem2()
        prof = problems.power_law_reference(cfg, 2.0, "xy")
        a = ThermoelasticSolver(cfg).run(prof)
        b = ThermoelasticSolver(cfg).run(prof)
        assert np.array_equal(a.nodal_temperature, b.nodal_temperature)
        assert np.array_equal(a.nodal_displacement, b.nodal_displacement)
        assert a.sigma_e_max == b.sigma_e_max
