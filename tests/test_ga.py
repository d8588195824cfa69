import json
import logging
import math
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from fgmopt.ga import (
    ELITE_COUNT,
    STALL_GENERATIONS,
    TOURNAMENT_SIZE,
    ConstraintSpec,
    FitnessEvaluator,
    GAConfig,
    Individual,
    eta_schedule,
    evaluation_counts,
    evolve,
    polynomial_mutation,
    prediction_error,
    sbx_crossover,
    static_penalty,
    tournament_select,
)
from fgmopt.fem import ThermoelasticSolver
from fgmopt.neural import StressSurrogate
from fgmopt.profiles import (
    average_ceramic_fraction,
    gene_bounds,
    generate_genes,
    genes_to_profiles,
    tensor_product,
)
from fgmopt.rng import derived_rng, make_rng
from fgmopt import ga, problems

from profile_oracle import axis_genes, replay_loop


def tiny_problem(nx=6, ny=6):
    """Scaled-down problem-2 plate for fast GA loops."""
    return replace(problems.problem2(), nx=nx, ny=ny)


def fem_evaluator(objective="sigma_e_max", constraints=None, nx=6):
    solver = ThermoelasticSolver(tiny_problem(nx, nx))
    return FitnessEvaluator(solver, objective, constraints or ConstraintSpec())


def set_stall_tolerance(monkeypatch, value, objective="sigma_e_max"):
    """Give ``objective``'s ``OBJECTIVES`` row the stall tolerance ``value`` for one test."""
    monkeypatch.setitem(ga.OBJECTIVES[objective], "stall_tolerance", value)


def fake_individual(fitness, idx=0):
    genes = generate_genes(derived_rng(1, idx), 6, 6)
    return Individual(genes=genes, objective=fitness, penalty=0.0, fitness=fitness,
                      eval_source="fem", sigma_e_max=fitness, v_ca=0.5,
                      max_metal_temperature=None, dnn_sigma=None)


class TestEtaSchedule:
    def test_generation_zero_is_base(self):
        assert eta_schedule(2.0, 0) == pytest.approx(2.0)
        assert eta_schedule(10.0, 0) == pytest.approx(10.0)

    def test_printed_value_at_g100(self):
        assert eta_schedule(2.0, 100) == pytest.approx(2 * (1 + 0.5 * (1 - math.e)), rel=1e-12)

    def test_strictly_decreasing_until_floor(self):
        vals = [eta_schedule(2.0, g) for g in range(0, 120, 10)]
        above = [v for v in vals if v > 0.01]
        assert all(a > b for a, b in zip(above, above[1:]))

    def test_floor(self):
        assert eta_schedule(2.0, 1000) == 0.01


def ranks(fitness):
    """Each individual's place in the stable fitness order that ``evolve`` sorts."""
    order = sorted(range(len(fitness)), key=lambda i: (fitness[i], i))
    rank = np.empty(len(fitness), dtype=int)
    rank[order] = np.arange(len(fitness))
    return rank


class TestTournament:
    def test_global_best_always_wins_when_included(self):
        got = tournament_select(ranks([5.0, 1.0, 3.0, 4.0]), k=4, n=50, rng=make_rng(0))
        np.testing.assert_array_equal(got, np.full(50, 1))

    def test_selection_pressure(self):
        # worst of n=20 must win a k=4 tournament only if all 4 draws hit it,
        # which is impossible without replacement -> probability 0; check the
        # analytic win probability of the best via frequencies
        n_draw = 10_000
        got = tournament_select(ranks([float(f) for f in range(20)]), 4, n_draw, make_rng(3))
        wins = np.bincount(got, minlength=20)
        assert wins[19] == 0  # the worst can never win a without-replacement tournament
        # P(win of rank r) = C(19-r, 3)/C(20, 4); spot-check the best
        p_best = math.comb(19, 3) / math.comb(20, 4)
        assert wins[0] / n_draw == pytest.approx(p_best, rel=0.05)

    def test_tie_broken_by_index(self):
        got = tournament_select(ranks([2.0, 2.0]), 2, 20, make_rng(1))
        np.testing.assert_array_equal(got, np.zeros(20, dtype=int))


class TestSBX:
    def test_identical_parents_unchanged(self):
        p = np.array([0.3, 1.5, 2.0])
        lo, hi = np.zeros(3), np.full(3, 3.0)
        c1, c2 = sbx_crossover(p, p, 2.0, lo, hi, make_rng(0))
        np.testing.assert_array_equal(c1, p)
        np.testing.assert_array_equal(c2, p)

    def test_mean_preservation_wide_bounds(self):
        rng = make_rng(1)
        lo, hi = np.full(5, -1e12), np.full(5, 1e12)
        p1 = rng.uniform(-1, 1, (10_000, 5))
        p2 = rng.uniform(-1, 1, (10_000, 5))
        c1, c2 = sbx_crossover(p1, p2, 2.0, lo, hi, rng)
        np.testing.assert_allclose((c1 + c2) / 2, (p1 + p2) / 2, atol=1e-12)

    def test_children_within_bounds_sweep(self):
        rng = make_rng(2)
        lo = np.array([0.001, 1.0])
        hi = np.array([0.1, 3.0])
        n = 25_000
        for eta in (0.01, 0.5, 2.0, 5.0):
            p1 = rng.uniform(lo, hi, (n, 2))
            p2 = rng.uniform(lo, hi, (n, 2))
            c1, c2 = sbx_crossover(p1, p2, eta, lo, hi, rng)
            for c in (c1, c2):
                assert np.all(c >= lo) and np.all(c <= hi)


class TestPolynomialMutation:
    def test_zero_probability_identity(self):
        g = np.array([0.5, 2.0])
        out = polynomial_mutation(g, 10.0, np.zeros(2), np.full(2, 3.0), 0.0, make_rng(0))
        np.testing.assert_array_equal(out, g)

    def test_mutants_within_bounds_sweep(self):
        rng = make_rng(4)
        lo = np.array([0.001, 1.0, -2.0])
        hi = np.array([1.0, 3.0, -1.0])
        n = 25_000
        for eta in (0.1, 2.0, 10.0, 50.0):
            g = rng.uniform(lo, hi, (n, 3))
            out = polynomial_mutation(g, eta, lo, hi, 1.0, rng)
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_perturbation_concentrates_with_eta(self):
        rng = make_rng(5)
        lo, hi = np.zeros(1), np.ones(1)
        medians = []
        for eta in (5.0, 20.0, 100.0):
            out = polynomial_mutation(np.full((4000, 1), 0.5), eta, lo, hi, 1.0, rng)
            medians.append(np.median(np.abs(out - 0.5)))
        assert medians[0] > medians[1] > medians[2]


# Scalar formulas of bounded SBX and polynomial mutation, one gene at a time:
# the oracle for the array operators, fed the uniforms in the documented order.

def _sbx_betaq(u, y1, y2, eta, bound_gap):
    beta = 1.0 + 2.0 * bound_gap / (y2 - y1)
    alpha = 2.0 - beta ** -(eta + 1.0)
    if u <= 1.0 / alpha:
        return (u * alpha) ** (1.0 / (eta + 1.0))
    return (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))


def sbx_oracle(p1, p2, etas, lower, upper, draws):
    c1, c2 = p1.copy(), p2.copy()
    for r, i in np.ndindex(p1.shape):
        cross_u, u, swap_u = draws[:, r, i]
        if cross_u > 0.5 or abs(p1[r, i] - p2[r, i]) <= 1e-14:
            continue
        y1, y2 = sorted((p1[r, i], p2[r, i]))
        a = 0.5 * ((y1 + y2) - _sbx_betaq(u, y1, y2, etas[r], y1 - lower[i]) * (y2 - y1))
        b = 0.5 * ((y1 + y2) + _sbx_betaq(u, y1, y2, etas[r], upper[i] - y2) * (y2 - y1))
        if swap_u <= 0.5:
            a, b = b, a
        c1[r, i] = min(max(a, lower[i]), upper[i])
        c2[r, i] = min(max(b, lower[i]), upper[i])
    return c1, c2


def mutation_oracle(genes, etas, lower, upper, probability, draws):
    out = genes.copy()
    for r, i in np.ndindex(genes.shape):
        mutate_u, u = draws[:, r, i]
        y, yl, yu = out[r, i], lower[i], upper[i]
        span = yu - yl
        if mutate_u >= probability or span <= 0.0:
            continue
        mut_pow = 1.0 / (etas[r] + 1.0)
        if u <= 0.5:
            xy = 1.0 - (y - yl) / span
            deltaq = (2.0 * u + (1.0 - 2.0 * u) * xy ** (etas[r] + 1.0)) ** mut_pow - 1.0
        else:
            xy = 1.0 - (yu - y) / span
            deltaq = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (etas[r] + 1.0)) ** mut_pow
        out[r, i] = min(max(y + deltaq * span, yl), yu)
    return out


class TestArrayOperatorsMatchScalarFormulas:
    # numpy's vectorized power may differ from libm's pow in the last bit, so
    # a few float64 ulps of the widest gene span are allowed
    lo = np.array([0.001, 1.0, -2.0, 0.5])
    hi = np.array([0.1, 3.0, -1.0, 0.5])  # the last gene has zero span
    atol = 8 * np.finfo(float).eps * 2.0

    def parents(self, seed, rows=400):
        rng = make_rng(seed)
        return rng.uniform(self.lo, self.hi, (rows, 4)), rng.uniform(self.lo, self.hi, (rows, 4))

    # the generation's arrays with that generation's one eta, as ``evolve`` calls them
    @pytest.mark.parametrize("eta", [0.01, 2.0, 5.0])
    def test_sbx_rows_with_scalar_eta(self, eta):
        p1, p2 = self.parents(20)
        p2[:5] = p1[:5]  # identical parents never cross
        c1, c2 = sbx_crossover(p1, p2, eta, self.lo, self.hi, make_rng(21))
        o1, o2 = sbx_oracle(p1, p2, np.full(len(p1), eta), self.lo, self.hi,
                            make_rng(21).random((3, *p1.shape)))
        np.testing.assert_allclose(c1, o1, rtol=0, atol=self.atol)
        np.testing.assert_allclose(c2, o2, rtol=0, atol=self.atol)
        assert not np.array_equal(c1, p1)

    def test_sbx_vector_with_scalar_eta(self):
        p1, p2 = self.parents(22, rows=1)
        c1, c2 = sbx_crossover(p1[0], p2[0], 2.0, self.lo, self.hi, make_rng(23))
        o1, o2 = sbx_oracle(p1, p2, [2.0], self.lo, self.hi, make_rng(23).random((3, 1, 4)))
        np.testing.assert_allclose(c1, o1[0], rtol=0, atol=self.atol)
        np.testing.assert_allclose(c2, o2[0], rtol=0, atol=self.atol)

    @pytest.mark.parametrize("eta", [0.1, 10.0, 50.0])
    def test_mutation_rows_with_scalar_eta(self, eta):
        genes, _ = self.parents(24)
        out = polynomial_mutation(genes, eta, self.lo, self.hi, 0.6, make_rng(25))
        want = mutation_oracle(genes, np.full(len(genes), eta), self.lo, self.hi, 0.6,
                               make_rng(25).random((2, *genes.shape)))
        np.testing.assert_allclose(out, want, rtol=0, atol=self.atol)
        assert not np.array_equal(out, genes)

    def test_mutation_vector_with_scalar_eta(self):
        genes, _ = self.parents(26, rows=1)
        out = polynomial_mutation(genes[0], 10.0, self.lo, self.hi, 1.0, make_rng(27))
        want = mutation_oracle(genes, [10.0], self.lo, self.hi, 1.0, make_rng(27).random((2, 1, 4)))
        np.testing.assert_allclose(out, want[0], rtol=0, atol=self.atol)


class TestStaticPenalty:
    def test_feasible_zero(self):
        spec = ConstraintSpec(v_star=0.15, theta_max=275.0, sigma_allow=150e6)
        s = {"v_ca": 0.10, "max_metal_temperature": 200.0, "sigma_e_max": 100e6}
        assert static_penalty(s, spec, 1e8) == 0.0

    def test_quadratic_hinge_value(self):
        spec = ConstraintSpec(v_star=0.15)
        s = {"v_ca": 0.30, "max_metal_temperature": None, "sigma_e_max": 1.0}
        assert static_penalty(s, spec, 1e8) == pytest.approx(1e8 * 1.0**2)

    def test_monotone_in_violation(self):
        spec = ConstraintSpec(sigma_allow=100e6)
        vals = [static_penalty({"sigma_e_max": s}, spec, 1e8) for s in (90e6, 110e6, 130e6, 200e6)]
        assert vals[0] == 0.0
        assert vals[1] < vals[2] < vals[3]

    def test_nan_value_of_an_active_constraint_is_infinite(self):
        # max(0, nan) is 0, which would read as satisfied
        spec = ConstraintSpec(sigma_allow=150e6, theta_max=275.0)
        ok = {"sigma_e_max": 100e6, "v_ca": 0.2, "max_metal_temperature": 200.0}
        assert static_penalty(ok, spec, 1e8) == 0.0
        for key in ("sigma_e_max", "max_metal_temperature"):
            assert static_penalty({**ok, key: math.nan}, spec, 1e8) == math.inf
        # an inactive constraint's value is not read
        assert static_penalty({**ok, "v_ca": math.nan}, spec, 1e8) == 0.0

    @pytest.mark.parametrize("name", ["v_star", "theta_max", "sigma_allow"])
    @pytest.mark.parametrize("value", [0, 0.0, -5, math.nan, math.inf, "1", True],
                             ids=["zero", "float-zero", "negative", "nan", "inf", "string", "bool"])
    def test_rejects_a_limit_that_is_not_a_positive_number(self, name, value):
        # value / limit - 1 reads "above the limit" only for a limit above 0
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number > 0, got "):
            ConstraintSpec(**{name: value})

    def test_weight_scaling_preserves_feasibility_and_ranking(self):
        rng = make_rng(9)
        cands = [{"sigma_e_max": rng.uniform(50e6, 250e6), "v_ca": rng.uniform(0, 1),
                  "max_metal_temperature": rng.uniform(100, 400)} for _ in range(200)]
        feasible, orders = [], []
        for w in (1.0, 1e4, 1e8):
            spec = ConstraintSpec(v_star=0.5, theta_max=275.0, sigma_allow=150e6)
            penalties = [static_penalty(c, spec, w) for c in cands]
            fitness = [c["sigma_e_max"] + p for c, p in zip(cands, penalties)]
            feasible.append([i for i, p in enumerate(penalties) if p == 0.0])
            orders.append(sorted(feasible[-1], key=fitness.__getitem__))
        assert feasible[0] == feasible[1] == feasible[2] and len(feasible[0]) > 1
        # among feasible candidates fitness = objective, whatever the weight
        by_objective = sorted(feasible[0], key=lambda i: cands[i]["sigma_e_max"])
        assert orders[0] == orders[1] == orders[2] == by_objective


class TestHybridDispatch:
    class StubStress:
        def __init__(self, value):
            self.value = value

        def predict(self, px, py):
            return np.array([self.value])

    class StubTemp:
        def __init__(self, value):
            self.value = value

        def predict(self, px, py, pts):
            return np.full(len(pts), self.value)

    @pytest.mark.parametrize("sigma_star, match", [
        (float("nan"), "sigma_star .* got nan"),
        (-1.0, "sigma_star .* got -1.0"),
        ("1e8", "sigma_star .* got '1e8'"),
        (True, "sigma_star .* got True"),
    ], ids=["nan-threshold", "negative-threshold", "string-threshold", "bool-threshold"])
    def test_rejects_a_threshold_it_cannot_route_by(self, sigma_star, match):
        with pytest.raises(ValueError, match=match):
            FitnessEvaluator(ThermoelasticSolver(tiny_problem()), "sigma_e_max",
                             ConstraintSpec(), sigma_star=sigma_star,
                             stress_model=self.StubStress(40e6))

    def test_sigma_star_zero_always_surrogate(self):
        solver = ThermoelasticSolver(tiny_problem())
        ev = FitnessEvaluator(solver, "sigma_e_max", ConstraintSpec(),
                              sigma_star=0.0, stress_model=self.StubStress(-5e6))
        genes = generate_genes(make_rng(0), 6, 6)
        ind = ev.evaluate(genes)
        assert ind.eval_source == "surrogate"
        assert ind.dnn_sigma == pytest.approx(-5e6)

    def test_below_threshold_goes_fem(self):
        solver = ThermoelasticSolver(tiny_problem())
        ev = FitnessEvaluator(solver, "sigma_e_max", ConstraintSpec(),
                              sigma_star=50e6, stress_model=self.StubStress(40e6))
        ind = ev.evaluate(generate_genes(make_rng(1), 6, 6))
        assert ind.eval_source == "fem"
        assert ind.sigma_e_max != pytest.approx(40e6)  # FEM value, not the stub

    def test_above_threshold_goes_surrogate(self):
        solver = ThermoelasticSolver(tiny_problem())
        ev = FitnessEvaluator(solver, "sigma_e_max",
                              ConstraintSpec(theta_max=275.0),
                              sigma_star=50e6, stress_model=self.StubStress(60e6),
                              temp_model=self.StubTemp(300.0))
        ind = ev.evaluate(generate_genes(make_rng(2), 6, 6))
        assert ind.eval_source == "surrogate"
        assert ind.sigma_e_max == pytest.approx(60e6)
        assert ind.max_metal_temperature == pytest.approx(300.0)
        assert ind.penalty > 0  # 300 C exceeds the 275 C limit

    def test_surrogate_metal_temperature_skips_ceramic_nodes(self):
        # the stub's temperature rises with the node index, so the maximum
        # lands on the last node of the profile grid that is below phi = 1
        class IndexTemp:
            def predict(self, px, py, pts):
                return np.arange(len(pts), dtype=float)

        solver = ThermoelasticSolver(tiny_problem())
        ev = FitnessEvaluator(solver, "sigma_e_max", ConstraintSpec(theta_max=275.0),
                              sigma_star=0.0, stress_model=self.StubStress(60e6),
                              temp_model=IndexTemp())
        rng = make_rng(6)
        for _ in range(20):
            genes = generate_genes(rng, 6, 6)
            px, py = genes_to_profiles(genes, 6, 6)
            metal = np.flatnonzero(tensor_product(px, py).ravel() < 1.0)
            assert ev.evaluate(genes).max_metal_temperature == float(metal[-1])

    def test_fem_only_mode_records_no_prediction(self):
        ev = fem_evaluator()
        ind = ev.evaluate(generate_genes(make_rng(3), 6, 6))
        assert ind.eval_source == "fem"
        assert ind.dnn_sigma is None
        assert ind.fitness == ind.objective + ind.penalty

    def test_thermal_limit_on_a_surrogate_route_needs_a_temperature_model(self):
        # without one the surrogate route has no metal temperature for the theta_max hinge
        limit = ConstraintSpec(theta_max=275.0)
        stress = self.StubStress(60e6)
        thermal = ThermoelasticSolver(tiny_problem())
        for sigma_star in (0.0, 50e6):
            with pytest.raises(ValueError, match="theta_max limit .* needs a temperature model"):
                FitnessEvaluator(thermal, "sigma_e_max", limit, sigma_star=sigma_star,
                                 stress_model=stress)
        # FEM only, or a uniform temperature change, needs none
        FitnessEvaluator(thermal, "sigma_e_max", limit)
        uniform = ThermoelasticSolver(replace(problems.problem1(), nx=6, ny=6))
        ind = FitnessEvaluator(uniform, "sigma_e_max", limit, sigma_star=0.0,
                               stress_model=stress).evaluate(generate_genes(make_rng(5), 6, 6))
        assert ind.max_metal_temperature == -700.0 and ind.penalty == 0.0

    def test_surrogate_vca_is_exact_quadrature(self):
        solver = ThermoelasticSolver(tiny_problem())
        ev = FitnessEvaluator(solver, "sigma_e_max", ConstraintSpec(),
                              sigma_star=0.0, stress_model=self.StubStress(90e6))
        genes = generate_genes(make_rng(4), 6, 6)
        ind_s = ev.evaluate(genes)
        ind_f = fem_evaluator().evaluate(genes)
        assert ind_s.v_ca == pytest.approx(ind_f.v_ca, abs=1e-12)


class TestPenaltyWeightIsTheObjectivesRow:
    def test_vca_penalty_is_100_times_the_squared_violation(self):
        # v_ca's row weighs a violation 100, sigma_e_max's 1e8
        assert ga.OBJECTIVES["v_ca"]["penalty_weight"] == 100.0
        limit = ConstraintSpec(sigma_allow=150e6)
        ev = FitnessEvaluator(ThermoelasticSolver(tiny_problem()), "v_ca", limit, sigma_star=0.0,
                              stress_model=TestHybridDispatch.StubStress(300e6))
        ind = ev.evaluate(generate_genes(make_rng(0), 6, 6))
        assert ind.penalty == 100.0 * (300e6 / 150e6 - 1.0) ** 2 == 100.0
        assert ind.fitness == ind.v_ca + 100.0
        fem = fem_evaluator("v_ca", ConstraintSpec(sigma_allow=1e6)).evaluate(ind.genes)
        assert fem.penalty == 100.0 * (fem.sigma_e_max / 1e6 - 1.0) ** 2 > 0.0


class TestSurrogateEvaluationIsTheFormulaPath:
    def test_bit_identical_to_decoding_each_axis_and_the_out_of_place_network(self):
        # each axis decoded alone by the recursion, the features joined, the network as
        # act(h @ W + b) per layer, v_ca from the two profiles and the penalty on top
        cfg = problems.problem1()
        model = StressSurrogate.build(make_rng(7), cfg.nx + 1, cfg.ny + 1,
                                      problems.stress_scale(cfg))
        solver = ThermoelasticSolver(cfg)
        rng = make_rng(8)
        lower, upper = gene_bounds(cfg.nx, cfg.ny)
        designs = [generate_genes(rng, cfg.nx, cfg.ny) for _ in range(40)]
        designs += [rng.uniform(lower, upper) for _ in range(40)]
        act = {"relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z}
        for objective in ("sigma_e_max", "v_ca"):
            spec = ConstraintSpec(v_star=0.7, sigma_allow=11e6)  # about the medians
            weight = ga.OBJECTIVES[objective]["penalty_weight"]
            ev = FitnessEvaluator(solver, objective, spec, sigma_star=0.0, stress_model=model)
            for genes in designs:
                px, py = (replay_loop(*axis) for axis in axis_genes(genes, cfg.nx))
                h = np.concatenate([px, py])[None]
                for layer in model.net.layers:
                    h = act[layer.activation](h @ layer.weights + layer.bias)
                summaries = {"sigma_e_max": float((h[:, 0] * model.output_scale)[0]),
                             "v_ca": average_ceramic_fraction(px, py),
                             "max_metal_temperature": float(cfg.uniform_delta_theta)}
                penalty = static_penalty(summaries, spec, weight)
                ind = ev.evaluate(genes)
                assert ind.sigma_e_max.hex() == summaries["sigma_e_max"].hex()
                assert ind.v_ca.hex() == summaries["v_ca"].hex()
                assert ind.fitness.hex() == float(summaries[objective] + penalty).hex()
            assert {ind.penalty > 0.0 for ind in map(ev.evaluate, designs)} == {True, False}


class TestNanPredictionUnderConstraints:
    class EveryOtherNan:
        """Stress stub: NaN on every other call, a feasible 100 MPa otherwise."""

        def __init__(self):
            self.calls = 0

        def predict(self, px, py):
            self.calls += 1
            return np.array([math.nan if self.calls % 2 else 100e6])

    def case4_evaluator(self, stress_model):
        case4 = problems.CASE_DEFAULTS["case4"]
        spec = ConstraintSpec(sigma_allow=case4["sigma_allow"], theta_max=case4["theta_max"])
        return FitnessEvaluator(ThermoelasticSolver(tiny_problem()), case4["objective"], spec,
                                sigma_star=0.0, stress_model=stress_model,
                                temp_model=TestHybridDispatch.StubTemp(200.0))

    def test_nan_stress_prediction_is_infeasible(self):
        ev = self.case4_evaluator(TestHybridDispatch.StubStress(math.nan))
        ind = ev.evaluate(generate_genes(make_rng(0), 6, 6))
        assert ind.eval_source == "surrogate" and math.isnan(ind.sigma_e_max)
        assert ind.penalty == math.inf and ind.fitness == math.inf
        assert math.isfinite(ind.objective)  # v_ca, which alone would look feasible

    def test_nan_designs_leave_the_feasible_fraction_and_a_finite_design_wins(self):
        config = GAConfig(population_size=8, min_generations=3, max_generations=3)
        rec = evolve(config, self.case4_evaluator(self.EveryOtherNan()), 2)
        for stats in rec.generations:
            assert 0.0 < stats.feasible_fraction < 1.0 and math.isfinite(stats.best_fitness)
        finite = [math.isfinite(ind.dnn_sigma) for ind in rec.population]
        assert rec.generations[-1].feasible_fraction == sum(finite) / len(finite)
        assert math.isfinite(rec.best.dnn_sigma) and rec.best.penalty == 0.0


class TestNanFitnessOrder:
    class EveryThirdNan:
        """Stress stub: NaN on the first of every three calls, else the x profile's
        mean in units of 100 MPa."""

        def __init__(self):
            self.calls = 0

        def predict(self, px, py):
            self.calls += 1
            return np.array([math.nan if self.calls % 3 == 1 else 1e8 * float(np.mean(px))])

    def test_a_nan_design_is_never_best_while_a_finite_one_is_there(self):
        # unconstrained, so a NaN prediction is a NaN fitness, which compares false both ways
        ev = FitnessEvaluator(ThermoelasticSolver(tiny_problem()), "sigma_e_max",
                              ConstraintSpec(), sigma_star=0.0,
                              stress_model=self.EveryThirdNan())
        config = GAConfig(population_size=8, min_generations=3, max_generations=3)
        rec = evolve(config, ev, 2)
        assert all(math.isfinite(stats.best_fitness) for stats in rec.generations)
        finite = [ind.fitness for ind in rec.population if not math.isnan(ind.fitness)]
        assert 0 < len(finite) < len(rec.population)
        assert rec.best.fitness == min(finite)


class TestEvolve:
    seed = 11

    @pytest.fixture(autouse=True)
    def stall_at_once(self, monkeypatch):
        # huge stall tolerance: stalled as soon as STALL_GENERATIONS generations lie behind
        set_stall_tolerance(monkeypatch, 1e30)

    def make_config(self, **kw):
        base = dict(population_size=10, min_generations=4, mutation_probability=0.3)
        base.update(kw)
        return GAConfig(**base)

    @pytest.mark.parametrize("bad, match", [
        # a tournament draws TOURNAMENT_SIZE distinct entrants, and the elites stay below it
        (dict(population_size=3), "population_size must be at least 4, got 3"),
        (dict(population_size=0), "population_size must be at least 4, got 0"),
        (dict(population_size=10.0), "population_size must be an integer, got 10.0"),
        (dict(population_size=True), "population_size must be an integer, got True"),
        (dict(min_generations=2.5), "min_generations must be an integer, got 2.5"),
        (dict(min_generations=True), "min_generations must be an integer, got True"),
        (dict(min_generations=-3), "min_generations must be >= 0, got -3"),
        (dict(max_generations=2.5), "max_generations must be an integer, got 2.5"),
        (dict(max_generations=-3), "max_generations must be None or >= 1, got -3"),
        (dict(max_generations=0), "max_generations must be None or >= 1, got 0"),
    ], ids=["population-below-tournament", "empty-population",
            "float-population", "bool-population",
            "fractional-min-generations", "bool-min-generations", "negative-min-generations",
            "fractional-max-generations", "negative-max-generations", "zero-max-generations"])
    def test_config_rejects_values_the_ga_cannot_run(self, bad, match):
        with pytest.raises(ValueError, match=match):
            self.make_config(**bad)

    def test_constants_and_objective_row_values_are_not_fields(self):
        # TOURNAMENT_SIZE, ELITE_COUNT and STALL_GENERATIONS are module constants; the penalty
        # weight and stall tolerance are read from the objective's OBJECTIVES row
        assert [f.name for f in fields(GAConfig)] == [
            "population_size", "mutation_probability", "min_generations", "max_generations"]
        assert [f.name for f in fields(ConstraintSpec)] == ["v_star", "theta_max", "sigma_allow"]

    @pytest.mark.parametrize("min_generations", [4, STALL_GENERATIONS + 3])
    def test_terminates_once_stalled_and_past_min_generations(self, min_generations):
        rec = evolve(self.make_config(min_generations=min_generations), fem_evaluator(),
                     self.seed)
        assert len(rec.generations) == max(min_generations, STALL_GENERATIONS + 1)

    def test_stall_tolerance_is_the_row_of_the_evaluators_objective(self, monkeypatch):
        set_stall_tolerance(monkeypatch, 0.0)  # sigma_e_max's row would run to max_generations
        set_stall_tolerance(monkeypatch, 1e30, "v_ca")
        evaluator = RecordingEvaluator()
        evaluator.objective = "v_ca"
        rec = evolve(self.make_config(max_generations=30), evaluator, self.seed)
        assert len(rec.generations) == STALL_GENERATIONS + 1

    def test_elitism_monotone_best_fitness(self):
        rec = evolve(self.make_config(min_generations=8), fem_evaluator(), self.seed)
        trace = [g.best_fitness for g in rec.generations]
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_fixed_seed_bit_identical(self):
        a = evolve(self.make_config(min_generations=5), fem_evaluator(), self.seed)
        b = evolve(self.make_config(min_generations=5), fem_evaluator(), self.seed)
        assert np.array_equal(a.best.genes, b.best.genes)
        assert [g.best_fitness for g in a.generations] == [g.best_fitness for g in b.generations]
        assert a.best.fitness == b.best.fitness

    def test_offspring_within_bounds_every_generation(self):
        rec = evolve(self.make_config(min_generations=6), fem_evaluator(), self.seed)
        for ind in rec.population:
            v = ind.genes
            assert np.all(v >= gene_bounds(6, 6)[0] - 1e-12)
            assert np.all(v <= gene_bounds(6, 6)[1] + 1e-12)

    def test_eval_source_totals_and_max_generations(self):
        rec = evolve(self.make_config(max_generations=3, min_generations=100),
                     fem_evaluator(), self.seed)
        assert rec.generations[-1].generation == 2
        totals = rec.eval_source_totals
        assert totals["fem"] > 0 and totals["surrogate"] == 0
        # the evaluations made: elites are not re-counted
        assert totals["fem"] == 10 + 2 * (10 - ELITE_COUNT)

    def test_improvement_drives_past_min_generations(self, monkeypatch):
        # tight tolerance: the run should not stop exactly at min_generations
        # unless truly stalled; just assert it runs and returns a best
        set_stall_tolerance(monkeypatch, 0.0)
        rec = evolve(self.make_config(min_generations=3, max_generations=8),
                     fem_evaluator(), self.seed)
        assert rec.best.fitness <= rec.generations[0].best_fitness

    def test_odd_child_count_follows_documented_generation_order(self):
        # 9 children from 5 pairs, the 10th child dropped
        n_children = 9
        pop = ELITE_COUNT + n_children
        config = self.make_config(population_size=pop, max_generations=2)
        evaluator = RecordingEvaluator()
        rec = evolve(config, evaluator, self.seed)
        assert [len(batch) for batch in evaluator.batches(pop, n_children)] == [pop, n_children]
        assert len(rec.population) == pop

        rng = derived_rng(self.seed, 0x6A)
        population = [evaluator.score(generate_genes(rng, 6, 6)) for _ in range(pop)]
        lower, upper = gene_bounds(6, 6)
        # one row of keys per tournament; its TOURNAMENT_SIZE smallest are the entrants
        parents = []
        for keys in rng.random((n_children + 1, pop)):
            entrants = np.argsort(keys)[:TOURNAMENT_SIZE]
            winner = min(entrants, key=lambda i: (population[i].fitness, i))
            parents.append(population[winner].genes)
        c1, c2 = sbx_crossover(parents[0::2], parents[1::2], eta_schedule(2.0, 0),
                               lower, upper, rng)
        children = [c for pair in zip(c1, c2) for c in pair][:n_children]
        want = polynomial_mutation(np.array(children), eta_schedule(10.0, 0), lower, upper,
                                   config.mutation_probability, rng)
        got = np.array(evaluator.batches(pop, n_children)[1])
        np.testing.assert_array_equal(got, want)
        order = sorted(range(pop), key=lambda i: (population[i].fitness, i))
        elites = [population[i].genes for i in order[:ELITE_COUNT]]
        np.testing.assert_array_equal([ind.genes for ind in rec.population[:ELITE_COUNT]],
                                      elites)

    def test_genes_are_sized_by_the_evaluators_plate(self):
        # a 5 x 3 element plate: every design drawn or bred has 2 + 4 + 2 genes and decodes
        evaluator = RecordingEvaluator(nx=5, ny=3)
        evolve(self.make_config(max_generations=2), evaluator, self.seed)
        assert len(evaluator.calls) == 10 + (10 - ELITE_COUNT)
        for genes in evaluator.calls:
            assert genes.shape == (8,)
            px, py = genes_to_profiles(genes, 5, 3)
            assert (px.size, py.size) == (6, 4)

    def test_children_are_read_only_rows_of_one_array(self):
        # each generation's children reach evaluate as rows of one read-only array, uncopied
        evaluator = RecordingEvaluator()
        rec = evolve(self.make_config(max_generations=3), evaluator, self.seed)
        initial, *generations = evaluator.batches(10, 10 - ELITE_COUNT)
        assert len(generations) == 2
        for children in generations:
            shared = children[0].base
            assert shared is not None and shared.shape == (10 - ELITE_COUNT, 12)
            assert not shared.flags.writeable
            for row, genes in enumerate(children):
                assert genes.base is shared and not genes.flags.writeable
                assert np.shares_memory(genes, shared[row])
        assert generations[0][0].base is not generations[1][0].base
        assert all(not genes.flags.writeable for genes in initial)
        # the carried elites own their genes, so no elite holds a whole generation alive
        for ind in rec.population[:ELITE_COUNT]:
            assert ind.genes.base is None and not ind.genes.flags.writeable

    def test_progress_line_per_generation(self, caplog):
        caplog.set_level(logging.INFO, logger="fgmopt.ga")
        rec = evolve(self.make_config(max_generations=3), RecordingEvaluator(), self.seed)
        lines = [json.loads(r.getMessage()) for r in caplog.records if r.name == "fgmopt.ga"]
        assert [line["generation"] for line in lines] == [0, 1, 2]
        # 10 initial individuals, then the children a generation (elites are not re-evaluated)
        for line, stats, n in zip(lines, rec.generations, (10, 10 - ELITE_COUNT, 10 - ELITE_COUNT)):
            assert {k: v for k, v in line.items() if k != "wall_s"} == asdict(stats)
            assert line["best_fitness"] == stats.best_fitness
            assert line["feasible_fraction"] == stats.feasible_fraction
            assert line["eval_sources"] == {"surrogate": n, "fem": 0}
            assert line["surrogate_rel_error"] is None
            assert (line["nan_predictions"], line["negative_predictions"]) == (0, 0)
            assert line["wall_s"] >= 0.0
        assert all(a["wall_s"] <= b["wall_s"] for a, b in zip(lines, lines[1:]))
        assert "wall_s" not in vars(rec.generations[0])

    def test_no_progress_line_is_built_below_info(self, caplog, monkeypatch):
        built = []
        monkeypatch.setattr(ga, "asdict", lambda stats: built.append(stats) or {})
        caplog.set_level(logging.WARNING, logger="fgmopt.ga")
        evolve(self.make_config(max_generations=3), RecordingEvaluator(), self.seed)
        assert built == []
        assert not [r for r in caplog.records if r.name == "fgmopt.ga"]
        caplog.set_level(logging.INFO, logger="fgmopt.ga")
        evolve(self.make_config(max_generations=3), RecordingEvaluator(), self.seed)
        assert len(built) == 3


class RecordingEvaluator:
    """Surrogate-routed stub on a plate of nx-by-ny elements: fitness is the gene
    sum; remembers every call."""

    objective = "sigma_e_max"  # evolve reads its stall tolerance from this row

    def __init__(self, nx=6, ny=6):
        self.solver = SimpleNamespace(config=tiny_problem(nx, ny))
        self.calls = []

    def score(self, genes):
        fitness = float(genes.sum())
        return Individual(genes=genes, objective=fitness, penalty=0.0, fitness=fitness,
                          eval_source="surrogate", sigma_e_max=fitness, v_ca=0.5,
                          max_metal_temperature=None, dnn_sigma=fitness)

    def evaluate(self, genes):
        self.calls.append(genes)
        return self.score(genes)

    def batches(self, population_size, n_children):
        """Initial population first, then one list per generation of children."""
        first, rest = self.calls[:population_size], self.calls[population_size:]
        return [first] + [rest[i:i + n_children] for i in range(0, len(rest), n_children)]


# a stub run's evaluations: 6 initial individuals, then the children (elites are not
# re-predicted)
STUB_EVALS = [6, 6 - ELITE_COUNT]


def stub_run(sigma_star, value):
    """Two generations of 6 with a stress surrogate that always predicts ``value``."""
    solver = ThermoelasticSolver(tiny_problem())
    ev = FitnessEvaluator(solver, "sigma_e_max", ConstraintSpec(), sigma_star=sigma_star,
                          stress_model=TestHybridDispatch.StubStress(value))
    return evolve(GAConfig(population_size=6, min_generations=2, max_generations=2), ev, 5)


class TestSurrogateRelError:
    def test_fem_routed_predictions_give_the_max_error(self):
        # a stub below the threshold sends every individual to FEM with its prediction
        rec = stub_run(sigma_star=1e12, value=40e6)
        assert [s.eval_sources for s in rec.generations] == [{"surrogate": 0, "fem": n}
                                                             for n in STUB_EVALS]
        children = rec.population[ELITE_COUNT:]  # the last generation's evaluations
        errors = [abs(40e6 - ind.sigma_e_max) / ind.sigma_e_max for ind in children]
        assert rec.generations[-1].surrogate_rel_error == max(errors)
        assert evaluation_counts(children)["surrogate_rel_error"] == max(errors)
        assert [prediction_error(40e6, ind.sigma_e_max) for ind in children] == errors

    def test_none_without_fem_routed_predictions(self):
        assert all(s.surrogate_rel_error is None for s in stub_run(0.0, 40e6).generations)
        fem_only = [fake_individual(1.0, i) for i in range(3)]
        assert evaluation_counts(fem_only)["surrogate_rel_error"] is None

    def test_nan_prediction_is_counted_not_maximised(self):
        # a NaN error would win max() only when it comes first
        nan, half = fake_individual(1e8, 0), fake_individual(1e8, 1)
        nan.dnn_sigma, half.dnn_sigma = math.nan, 5e7
        for evaluated in ([nan, half], [half, nan]):
            counts = evaluation_counts(evaluated)
            assert counts["surrogate_rel_error"] == 0.5
            assert counts["nan_predictions"] == 1
        assert evaluation_counts([nan])["surrogate_rel_error"] is None
        assert all(s.surrogate_rel_error is None for s in stub_run(50e6, math.nan).generations)


class TestBadPredictions:
    def test_nan_prediction_routes_to_fem_and_is_counted(self):
        rec = stub_run(sigma_star=50e6, value=np.nan)
        assert [s.nan_predictions for s in rec.generations] == STUB_EVALS
        assert [s.negative_predictions for s in rec.generations] == [0, 0]
        assert [s.eval_sources["fem"] for s in rec.generations] == STUB_EVALS
        assert all(s.eval_sources["surrogate"] == 0 for s in rec.generations)
        assert rec.bad_prediction_totals == {"nan_predictions": sum(STUB_EVALS),
                                             "negative_predictions": 0}

    def test_negative_prediction_is_the_objective_and_is_counted(self):
        rec = stub_run(sigma_star=0.0, value=-5e6)
        assert [s.negative_predictions for s in rec.generations] == STUB_EVALS
        assert [s.nan_predictions for s in rec.generations] == [0, 0]
        assert rec.best.objective == -5e6 and rec.best.eval_source == "surrogate"
        assert rec.bad_prediction_totals == {"nan_predictions": 0,
                                             "negative_predictions": sum(STUB_EVALS)}

    def test_nan_prediction_is_the_objective_with_sigma_star_zero(self):
        rec = stub_run(sigma_star=0.0, value=np.nan)
        assert rec.bad_prediction_totals == {"nan_predictions": sum(STUB_EVALS),
                                             "negative_predictions": 0}
        assert [s.eval_sources["surrogate"] for s in rec.generations] == STUB_EVALS
        assert all(s.eval_sources["fem"] == 0 for s in rec.generations)
        assert math.isnan(rec.best.objective)

    def test_fem_only_counts_nothing(self):
        rec = evolve(TestEvolve().make_config(max_generations=2), fem_evaluator(), TestEvolve.seed)
        assert rec.bad_prediction_totals == {"nan_predictions": 0, "negative_predictions": 0}


def test_surrogate_only_evolve_makes_one_single_row_predict_per_child(monkeypatch):
    # the per-child call pattern: one single-row stress prediction for each
    # evaluated individual, and no 2D profile on the surrogate route
    from fgmopt import ga
    from fgmopt.neural import StressSurrogate

    rows = []
    real_predict = StressSurrogate.predict

    def predict(model, profiles_x, profiles_y):
        rows.append(np.atleast_2d(profiles_x).shape[0])
        return real_predict(model, profiles_x, profiles_y)

    def no_profile(*args, **kwargs):
        raise AssertionError("tensor_product on the surrogate route")

    monkeypatch.setattr(StressSurrogate, "predict", predict)
    monkeypatch.setattr(ga, "tensor_product", no_profile)
    model = StressSurrogate.build(make_rng(0), 7, 7, output_scale=1e8)
    ev = FitnessEvaluator(ThermoelasticSolver(tiny_problem()), "sigma_e_max", ConstraintSpec(),
                          sigma_star=0.0, stress_model=model)
    rec = evolve(GAConfig(population_size=8, min_generations=3, max_generations=3), ev, 4)
    assert rows == [1] * (8 + 2 * (8 - ELITE_COUNT))
    assert rec.eval_source_totals == {"surrogate": len(rows), "fem": 0}
