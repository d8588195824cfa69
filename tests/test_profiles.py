import json
from dataclasses import replace

import numpy as np
import pytest

from fgmopt import problems, profiles
from fgmopt.errors import DimensionMismatch, GeneOutOfBounds, OutOfDomain, PhiOutOfRange
from fgmopt.profiles import (
    ALPHA_UPPER_MAX,
    GradationGenes,
    Profile1D,
    Profile2D,
    average_ceramic_fraction,
    bilinear_shape,
    gene_bounds,
    generate_genes,
    genes_from_dict,
    genes_to_profiles,
    interpolate,
    metal_maximum,
    power_law_profile,
    tensor_product,
)
from fgmopt.rng import derived_rng, make_rng

from profile_oracle import replay_loop

class TestTypes:
    def test_profile1d_invariants(self):
        with pytest.raises(PhiOutOfRange):
            Profile1D(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(PhiOutOfRange):
            Profile1D(np.array([0.0, 1.5]))
        with pytest.raises(PhiOutOfRange):
            Profile1D(np.array([0.0, np.nan, 1.0]))
        p = Profile1D(np.array([0.0, 0.5, 1.0]))
        assert p.n_elems == 2
        assert not p.values.flags.writeable

    def test_profile2d_invariants(self):
        with pytest.raises(PhiOutOfRange):
            Profile2D(np.array([[0.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(PhiOutOfRange):
            Profile2D(np.array([[0.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            Profile2D(np.ones((1, 3)))

    def test_values_within_tolerance_are_clipped_into_a_copy(self):
        tol = 0.5e-9  # inside _BOUND_TOL
        values = np.array([0.0, 0.5, 1.0 + tol])
        p = Profile1D(values)
        np.testing.assert_array_equal(p.values, [0.0, 0.5, 1.0])
        grid = np.array([[-tol, 0.5], [0.25, 1.0]])
        np.testing.assert_array_equal(Profile2D(grid).grid, [[0.0, 0.5], [0.25, 1.0]])
        # in-range input is copied too: the caller's array stays writable and apart
        inside = np.array([0.0, 0.5, 1.0])
        q = Profile1D(inside)
        inside[1] = 0.25
        assert q.values[1] == 0.5 and values[2] == 1.0 + tol

    def test_genes_copy_the_callers_ratio_arrays(self):
        ax, ay = np.full(5, 1.5), np.full(4, 1.25)
        genes = GradationGenes(0.1, 0.05, ax, ay)
        assert ax.flags.writeable and ay.flags.writeable
        ax[0], ay[0] = 2.0, 2.0
        np.testing.assert_array_equal(genes.alphas_x, np.full(5, 1.5))
        np.testing.assert_array_equal(genes.alphas_y, np.full(4, 1.25))
        assert not genes.alphas_x.flags.writeable and not genes.alphas_y.flags.writeable
        vec = genes.flatten()
        child = genes.replace_vector(vec)
        vec[2] = 3.0
        assert child.alphas_x[0] == 1.5


    def test_genes_hold_one_read_only_vector(self):
        genes = GradationGenes(0.1, 0.05, [1.5, 1.5, 1.5], np.full(2, 1.25))
        np.testing.assert_array_equal(genes.vector, [0.1, 0.05, 1.5, 1.5, 1.5, 1.25, 1.25])
        assert not genes.vector.flags.writeable
        assert genes.alphas_x.base is genes.vector and genes.alphas_y.base is genes.vector
        vec = genes.flatten()
        assert vec.flags.writeable and not np.shares_memory(vec, genes.vector)
        child = genes.replace_vector(vec)
        assert not np.shares_memory(child.vector, vec) and not child.vector.flags.writeable
        assert (type(child.phi_x1), child.phi_x1, child.phi_y1) == (float, 0.1, 0.05)
        np.testing.assert_array_equal(child.alphas_y, [1.25, 1.25])
        with pytest.raises(DimensionMismatch, match="1D"):
            GradationGenes(0.1, 0.05, np.ones((2, 2)), np.ones(2))


class TestGeneration:
    def test_constant_ratio_then_normalization(self):
        # all ratios 1 and phi1 = 0.2 -> [0,.2,.2,.2,.2] -> normalized [0,1,1,1,1]
        genes = GradationGenes(0.2, 0.05, np.ones(3), np.ones(3))
        px, py = genes_to_profiles(genes)
        np.testing.assert_allclose(px.values, [0, 1, 1, 1, 1])
        np.testing.assert_allclose(py.values, [0, 1, 1, 1, 1])

    def test_geometric_growth_until_clip(self):
        # constant ratio b: phi_i = phi1 * b**(i-1) until min() clips at 1;
        # the last node is then 1, so the end normalization leaves it alone
        b = 3.0
        genes = GradationGenes(0.02, 0.02, np.full(5, b), np.full(5, b))
        px, _ = genes_to_profiles(genes)
        expected = np.minimum(1.0, 0.02 * b ** np.arange(-0.0, 6.0))
        np.testing.assert_allclose(px.values[1:], expected, rtol=1e-14)

    def test_generated_profiles_satisfy_invariants(self):
        # 1e4 random profiles: node0 = 0, last node = 1, monotone, inside [0, 1]
        rng = make_rng(1234)
        for _ in range(5_000):
            for p in genes_to_profiles(generate_genes(rng, 20, 20)):
                v = p.values
                assert v[0] == 0.0
                assert v[-1] == pytest.approx(1.0, abs=1e-12)
                assert np.all(np.diff(v) >= -1e-15)
                assert v.min() >= 0.0 and v.max() <= 1.0

    def test_bucket_membership_of_first_node(self):
        rng = make_rng(7)
        hits = [0, 0]
        for _ in range(2000):
            genes = generate_genes(rng, 5, 5)
            assert 0.001 <= genes.phi_x1 <= 1.0  # the one wide x bucket
            phi1 = genes.phi_y1
            assert 0.001 <= phi1 <= 0.1
            hits[0 if phi1 <= 0.01 else 1] += 1
        # equal bucket probability: both buckets used roughly half the time
        assert 800 < hits[0] < 1200

    def test_record_replay_round_trip(self):
        for seed in range(50):
            rng = derived_rng(99, seed)
            genes = generate_genes(rng, 20, 20)
            px1, py1 = genes_to_profiles(genes)
            px2, py2 = genes_to_profiles(genes)
            # pure function: bit-identical replay
            assert np.array_equal(px1.values, px2.values)
            assert np.array_equal(py1.values, py2.values)

    def test_generate_matches_replay_of_drawn_genes(self):
        genes = generate_genes(derived_rng(5, 0), 15, 15)
        px, _ = genes_to_profiles(genes)
        # the decoding that dataset generation and the GA use
        assert px.values[0] == 0.0 and px.values[-1] == pytest.approx(1.0)

    def test_alpha_perturbation_is_local_before_normalization(self):
        # both profiles reach the cap at 1, so the end normalization rescales neither
        alphas = np.array([1.1, 1.2, 1.3, 1.1, 1.2])
        g1 = GradationGenes(0.5, 0.05, alphas, alphas)
        alphas2 = alphas.copy()
        alphas2[2] += 0.1
        g2 = GradationGenes(0.5, 0.05, alphas2, alphas)
        p1, _ = genes_to_profiles(g1)
        p2, _ = genes_to_profiles(g2)
        assert p1.values[-1] == p2.values[-1] == 1.0
        # alphas[2] feeds node 4; earlier nodes unchanged
        np.testing.assert_array_equal(p1.values[:4], p2.values[:4])
        assert np.all(p2.values[4:] >= p1.values[4:])

    def test_gene_bounds_and_validation(self):
        # x first node in the wide bucket, y first node in the span of the two small ones
        lower, upper = gene_bounds(5, 4)
        np.testing.assert_allclose(lower, [0.001, 0.001] + [1.0] * 7)
        np.testing.assert_allclose(upper, [1.0, 0.1] + [3.0] * 7)
        genes = GradationGenes(0.5, 0.05, np.full(4, 2.0), np.full(3, 4.0))
        with pytest.raises(GeneOutOfBounds, match=r"genes \[6, 7, 8\]"):
            genes_to_profiles(genes)
        with pytest.raises(GeneOutOfBounds, match=r"genes \[1\]"):
            GradationGenes(0.5, 0.2, np.full(4, 2.0), np.full(3, 2.0)).validate()

    def test_gene_bounds_are_built_once_per_plate_and_read_only(self):
        lower, upper = gene_bounds(6, 6)
        assert gene_bounds(6, 6)[0] is lower and gene_bounds(6, 6)[1] is upper
        for bound in (lower, upper):
            assert not bound.flags.writeable
        # children share the cached bounds, and no copy of them rides on the genes
        child = generate_genes(make_rng(1), 6, 6).replace_vector(lower.copy())
        assert child.alphas_x.size == child.alphas_y.size == 5
        assert not hasattr(child, "lower") and not hasattr(child, "upper")
        child.validate()

    def test_genes_json_round_trip(self):
        genes = generate_genes(make_rng(3), 8, 6)
        d = json.loads(json.dumps(genes.to_dict()))
        back = genes_from_dict(d, 8, 6)
        assert np.array_equal(back.flatten(), genes.flatten())

    @pytest.mark.parametrize("nx, ny", [(9, 6), (8, 7), (6, 8)])
    def test_genes_of_another_plate_rejected_naming_both_counts(self, nx, ny):
        d = generate_genes(make_rng(3), 8, 6).to_dict()
        with pytest.raises(DimensionMismatch,
                           match=rf"7 x-ratios and 5 y-ratios, .* takes {nx - 1} and {ny - 1}"):
            genes_from_dict(d, nx, ny)


class TestReplayMatchesRecursion:
    def test_non_finite_and_low_genes_rejected(self):
        # decoding never sees a NaN, an infinite or a sub-1 ratio, nor a NaN phi1
        alphas = np.full(5, 2.0)
        for bad in (np.nan, np.inf, 0.5):
            bad_alphas = alphas.copy()
            bad_alphas[1] = bad
            with pytest.raises(GeneOutOfBounds):
                genes_to_profiles(GradationGenes(0.05, 0.05, bad_alphas, alphas))
        with pytest.raises(GeneOutOfBounds):
            genes_to_profiles(GradationGenes(np.nan, 0.05, alphas, alphas))

    def test_ratios_admitted_just_below_one_decode_as_one(self):
        # validate admits a ratio up to _BOUND_TOL below 1; taken as is, 39 of them would
        # push phi_x1 0.5 past 1 after the end rescaling and decoding would raise
        cfg = problems.problem1()
        alphas_y = np.full(cfg.ny - 1, 1.5)
        low = GradationGenes(0.5, 0.05, np.full(cfg.nx - 1, 1 - 5e-10), alphas_y)
        one = GradationGenes(0.5, 0.05, np.ones(cfg.nx - 1), alphas_y)
        low.validate()
        for got, want in zip(genes_to_profiles(low), genes_to_profiles(one)):
            assert got.values.tobytes() == want.values.tobytes()


def edge_designs(nx, ny):
    """Gene vectors on the edges of the admitted box of an nx-by-ny plate."""
    tol = 5e-10  # inside _BOUND_TOL
    lower, upper = gene_bounds(nx, ny)
    mid = (lower + upper) / 2
    designs = []
    for phis in ((lower[0], lower[1]), (upper[0], upper[1]), (lower[0] - tol, upper[1] + tol),
                 (upper[0] + tol, lower[1] - tol), (mid[0], mid[1])):
        for ratios in (1.0 - tol, 1.0, 1.0001, 1.5, ALPHA_UPPER_MAX, ALPHA_UPPER_MAX + tol):
            designs.append(np.concatenate((phis, np.full(lower.size - 2, ratios))))
        # ratios just below 1 then large: the product stays flat, then reaches the cap
        steps = np.where(np.arange(lower.size - 2) % 4 < 2, 1.0 - tol, ALPHA_UPPER_MAX)
        designs.append(np.concatenate((phis, steps)))
    return designs


class TestDecodingMatchesRecursion:
    """genes_to_profiles, both axes in one buffer, against replay_loop bit for bit."""

    @staticmethod
    def assert_decodes_as_recursion(genes):
        # an admitted ratio below 1 is taken as 1 (TestReplayMatchesRecursion)
        px, py = genes_to_profiles(genes)
        for got, phi1, alphas in ((px, genes.phi_x1, genes.alphas_x),
                                  (py, genes.phi_y1, genes.alphas_y)):
            assert got.values.tobytes() == replay_loop(phi1, np.maximum(alphas, 1.0)).values.tobytes()

    @pytest.mark.parametrize("nx, ny", [(40, 40), (20, 20), (7, 3), (1, 5)])
    def test_seeded_sweeps(self, nx, ny):
        # drawn designs, and vectors uniform over the gene bounds, which reach the
        # cap or end below 1 and are rescaled
        rng = make_rng(100 * nx + ny)
        lower, upper = gene_bounds(nx, ny)
        template = generate_genes(rng, nx, ny)
        for _ in range(300):
            self.assert_decodes_as_recursion(generate_genes(rng, nx, ny))
            self.assert_decodes_as_recursion(template.replace_vector(rng.uniform(lower, upper)))

    @pytest.mark.parametrize("nx, ny", [(40, 40), (6, 9)])
    def test_edge_vectors(self, nx, ny):
        # ratios of 1 - 5e-10, ratios that reach the cap, first nodes at and just past
        # both bounds, and last nodes below 1
        template = generate_genes(make_rng(0), nx, ny)
        rescaled = capped = 0
        for vec in edge_designs(nx, ny):
            genes = template.replace_vector(vec)
            genes.validate()
            self.assert_decodes_as_recursion(genes)
            for phi1, alphas in ((genes.phi_x1, genes.alphas_x), (genes.phi_y1, genes.alphas_y)):
                product = phi1 * np.prod(np.maximum(alphas, 1.0))
                rescaled += product < 1.0
                capped += product > 1.0
        assert rescaled > 0 and capped > 0

    def test_profiles_are_read_only_views_of_one_buffer(self):
        px, py = genes_to_profiles(generate_genes(make_rng(2), 5, 4))
        assert px.values.base is py.values.base
        assert (px.values.size, py.values.size, px.values.base.size) == (6, 5, 11)
        assert not px.values.flags.writeable and not py.values.flags.writeable

    @pytest.mark.parametrize("fault", [-0.5, np.nan])
    def test_the_range_check_catches_a_decoding_fault(self, monkeypatch, fault):
        def broken(out, phi1, alphas):
            out[:] = fault
            return out

        monkeypatch.setattr(profiles, "_running_product", broken)
        with pytest.raises(PhiOutOfRange):
            genes_to_profiles(generate_genes(make_rng(1), 4, 4))

    @pytest.mark.parametrize("bad", ["below", "above", "nan", "inf"])
    def test_out_of_bounds_vectors_raise_naming_the_gene(self, bad):
        nx, ny = 6, 4
        lower, upper = gene_bounds(nx, ny)
        template = generate_genes(make_rng(3), nx, ny)
        for i in range(lower.size):
            vec = (lower + upper) / 2
            vec[i] = {"below": lower[i] - 2e-9, "above": upper[i] + 2e-9,
                      "nan": np.nan, "inf": np.inf}[bad]
            with pytest.raises(GeneOutOfBounds, match=rf"genes \[{i}\] "):
                genes_to_profiles(template.replace_vector(vec))


class TestTensorProductAndInterpolation:
    def test_outer_product_exact(self):
        px = Profile1D(np.array([0.0, 0.5, 1.0]))
        py = Profile1D(np.array([0.0, 1.0]))
        p2 = tensor_product(px, py)
        np.testing.assert_array_equal(p2.grid, [[0, 0], [0, 0.5], [0, 1]])

    def test_all_ones_column_recovers_px(self):
        px = Profile1D(np.array([0.0, 0.3, 0.7, 1.0]))
        py = Profile1D(np.array([0.0, 1.0, 1.0]))
        p2 = tensor_product(px, py)
        for j in (1, 2):
            np.testing.assert_array_equal(p2.grid[:, j], px.values)

    def test_monotone_factors_give_monotone_grid(self):
        rng = make_rng(42)
        for _ in range(1000):
            px, py = genes_to_profiles(generate_genes(rng, 10, 10))
            g = tensor_product(px, py).grid
            assert np.all(np.diff(g, axis=0) >= -1e-15)
            assert np.all(np.diff(g, axis=1) >= -1e-15)

    def test_shape_functions_partition_of_unity(self):
        rng = make_rng(0)
        xi = rng.uniform(-1, 1, 10_000)
        eta = rng.uniform(-1, 1, 10_000)
        np.testing.assert_allclose(bilinear_shape(xi, eta).sum(axis=-1), 1.0, atol=1e-14)

    def test_interpolation_reproduces_nodes_and_cell_means(self):
        rng = make_rng(11)
        grid = rng.uniform(0, 1, (5, 4))
        p = Profile2D(grid)
        xs = np.linspace(0, 2.0, 5)
        ys = np.linspace(0, 1.5, 4)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert interpolate(p, x, y, 2.0, 1.5) == pytest.approx(grid[i, j], abs=1e-13)
        # cell centre = mean of 4 corners
        xc, yc = 0.5 * (xs[0] + xs[1]), 0.5 * (ys[0] + ys[1])
        assert interpolate(p, xc, yc, 2.0, 1.5) == pytest.approx(grid[:2, :2].mean(), abs=1e-13)

    def test_interpolation_bounded_by_corners(self):
        rng = make_rng(12)
        p = Profile2D(rng.uniform(0, 1, (6, 6)))
        x = rng.uniform(0, 1, 500)
        y = rng.uniform(0, 1, 500)
        vals = interpolate(p, x, y, 1.0, 1.0)
        assert vals.min() >= p.grid.min() - 1e-12
        assert vals.max() <= p.grid.max() + 1e-12

    def test_out_of_domain_raises(self):
        p = Profile2D(np.zeros((3, 3)))
        with pytest.raises(OutOfDomain):
            interpolate(p, 1.5, 0.5, 1.0, 1.0)
        with pytest.raises(OutOfDomain):
            interpolate(p, 0.5, -0.1, 1.0, 1.0)


class TestPowerLaw:
    def test_direct_values(self):
        np.testing.assert_allclose(power_law_profile(2, 1.0).values, [0, 0.5, 1])
        np.testing.assert_allclose(
            power_law_profile(4, 2.0).values, [0, 0.0625, 0.25, 0.5625, 1]
        )
        np.testing.assert_allclose(power_law_profile(3, 0.0).values, [0, 1, 1, 1])

    def test_exact_ratios_reproduce_power_law(self):
        # the paper's subset claim on the shipped gene bounds: phi1 = (1/n)**m
        # and ratios ((i+1)/i)**m decode to the power law (x/L)**m
        def power_law_genes(nx, ny, m):
            ratios = [((i + 1.0) / i) ** m for i in (np.arange(1, n) for n in (nx, ny))]
            return GradationGenes((1.0 / nx) ** m, (1.0 / ny) ** m, *ratios)

        for pid in problems.PROBLEM_IDS:
            cfg = problems.get_problem(pid)
            for m in (1.0, 1.5):
                px, py = genes_to_profiles(power_law_genes(cfg.nx, cfg.ny, m))
                assert np.max(np.abs(px.values - power_law_profile(cfg.nx, m).values)) <= 1e-12
                assert np.max(np.abs(py.values - power_law_profile(cfg.ny, m).values)) <= 1e-12
            # the first exact ratio 2**m exceeds ALPHA_UPPER_MAX = 3 beyond m = log2(3)
            genes = power_law_genes(cfg.nx, cfg.ny, 2.0)
            assert genes.alphas_x[0] == 4.0 > ALPHA_UPPER_MAX == 3.0
            with pytest.raises(GeneOutOfBounds):
                genes_to_profiles(genes)


def tensor_trapezoid_mean(grid):
    """Tensor trapezoid rule on the node grid divided by the cell count."""
    wx, wy = np.ones(grid.shape[0]), np.ones(grid.shape[1])
    wx[[0, -1]] = wy[[0, -1]] = 0.5
    return wx @ grid @ wy / ((grid.shape[0] - 1) * (grid.shape[1] - 1))


class TestAverages:
    def test_uniform_grid(self):
        # ceramic everywhere but on the two metal edges x = 0 and y = 0
        px, py = Profile1D(np.r_[0.0, np.ones(6)]), Profile1D(np.r_[0.0, np.ones(4)])
        assert average_ceramic_fraction(px, py) == pytest.approx(
            (1 - 0.5 / 6) * (1 - 0.5 / 4), abs=1e-14)

    def test_linear_by_linear_quarter(self):
        lin = Profile1D(np.linspace(0, 1, 11))
        assert average_ceramic_fraction(lin, lin) == pytest.approx(0.25, abs=1e-14)

    def test_matches_fine_riemann_sum(self):
        rng = make_rng(21)
        px = Profile1D(np.r_[0.0, rng.uniform(0, 1, 3)])
        py = Profile1D(np.r_[0.0, rng.uniform(0, 1, 4)])
        p = tensor_product(px, py)
        xs = np.linspace(0, 0.3, 901)
        ys = np.linspace(0, 0.2, 601)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        riemann = np.trapezoid(np.trapezoid(interpolate(p, X.ravel(), Y.ravel(), 0.3, 0.2).reshape(X.shape), ys, axis=1), xs) / (0.3 * 0.2)
        assert average_ceramic_fraction(px, py) == pytest.approx(riemann, abs=1e-6)

    def test_matches_tensor_trapezoid_rule_on_generated_designs(self):
        # the product of 1D means sums in another order than the 2D rule
        for pid in problems.PROBLEM_IDS:
            cfg = problems.get_problem(pid)
            rng = make_rng(22)
            for _ in range(1000):
                px, py = genes_to_profiles(generate_genes(rng, cfg.nx, cfg.ny))
                want = tensor_trapezoid_mean(tensor_product(px, py).grid)
                assert average_ceramic_fraction(px, py) == pytest.approx(want, rel=1e-15, abs=0)


class TestMetalMaximum:
    def test_largest_value_where_phi_below_one(self):
        phi = np.array([[0.0, 0.5, 1.0], [0.999, 1.0, 1.0]])
        values = np.array([[3.0, -2.0, 50.0], [7.5, 60.0, 70.0]])
        assert metal_maximum(values, phi) == 7.5
        assert metal_maximum(values.ravel(), phi.ravel()) == 7.5  # flat grid, as on the surrogate route

    def test_no_metal_gives_minus_inf(self):
        assert metal_maximum(np.array([1.0, 2.0]), np.ones(2)) == -np.inf
        assert metal_maximum(np.zeros((2, 3)), np.ones((2, 3))) == float("-inf")

    def test_generated_designs_always_have_metal(self):
        # node 0 of each axis is pure metal, so the maximum is always a value
        cfg = problems.problem2()
        rng = make_rng(23)
        for _ in range(200):
            px, py = genes_to_profiles(generate_genes(rng, cfg.nx, cfg.ny))
            grid = tensor_product(px, py).grid
            assert grid[0, 0] == 0.0
            assert metal_maximum(np.arange(grid.size, dtype=float), grid.ravel()) >= 0.0


class TestAxisProfiles:
    def test_axis_y_uniform_in_x(self):
        cfg = replace(problems.problem2(), L=2.0, H=1.0, nx=3, ny=4)
        p = problems.power_law_reference(cfg, 1.0, "y")
        assert p.grid.shape == (4, 5)
        for i in range(4):
            np.testing.assert_allclose(p.grid[i], [0, 0.25, 0.5, 0.75, 1.0])
