"""Real-coded genetic algorithm over gradation genes.

Minimization throughout: fitness = objective + static penalty, tournament
selection picks the smallest fitness.  Recombination is Deb's bounded
simulated binary crossover (per-gene application with probability 1/2,
spread exponent eta_c), variation is Deb's bounded polynomial mutation
(per-gene probability, exponent eta_m).  Both exponents follow the
generation schedule base * [1 + (1 - exp(g/100))/2] (floored; the sign of
the exponent is switchable since the printed schedule decreases).

Fitness dispatch is hybrid: a stress surrogate predicts the peak effective
stress; above the trust threshold sigma_star the surrogate path supplies the
objective (temperature field from the operator net where a thermal
constraint needs it, average ceramic fraction always by exact quadrature),
otherwise the full FEM evaluation runs.  sigma_star = None forces FEM
everywhere, sigma_star = 0 forces the surrogate everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import MissingSummary
from .fem import ThermoelasticSolver
from .profiles import (
    GenerationConfig,
    GradationGenes,
    average_ceramic_fraction,
    generate_genes,
    genes_to_profiles,
    grid_points,
    tensor_product,
)
from .rng import derived_rng, make_rng

_SBX_EPS = 1e-14


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 200
    tournament_size: int = 4
    eta_c_base: float = 2.0
    eta_m_base: float = 10.0
    eta_floor: float = 0.01
    eta_exponent_sign: float = 1.0  # printed schedule: exp(+g/100)
    mutation_probability: float = 0.3
    elite_count: int = 2
    min_generations: int = 50
    stall_generations: int = 10
    stall_tolerance: float = 1.0e3  # objective units; 1e3 Pa = 0.001 MPa
    max_generations: int | None = None
    sigma_star: float | None = None  # None: FEM only; 0: surrogate only
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.elite_count < self.population_size):
            raise ValueError("need 0 < elite_count < population_size")
        if self.tournament_size > self.population_size:
            raise ValueError("tournament larger than population")


@dataclass(frozen=True)
class ConstraintSpec:
    """Inequality constraints; normalized quadratic hinge penalties."""

    v_star: float | None = None  # average ceramic fraction limit
    theta_max: float | None = None  # max temperature over the metallic region
    sigma_allow: float | None = None  # peak effective stress limit [Pa]
    weight: float = 1.0e8  # shared penalty weight, objective units


@dataclass
class Individual:
    genes: GradationGenes
    objective: float
    penalty: float
    fitness: float
    eval_source: str  # "surrogate" | "fem"
    sigma_e_max: float
    v_ca: float
    max_metal_temperature: float | None
    dnn_sigma: float | None  # recorded surrogate prediction, if one was made

    def summary(self) -> dict:
        """Every field but the genes."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "genes"}


def eta_schedule(base: float, g: int, floor: float = 0.01, sign: float = 1.0) -> float:
    """Generation-dependent distribution index, floored to stay positive."""
    value = base * (1.0 + 0.5 * (1.0 - math.exp(sign * g / 100.0)))
    return max(value, floor)


def tournament_select(population, k: int, rng) -> Individual:
    """Best (minimum fitness) of k distinct individuals; ties by lowest index."""
    rng = make_rng(rng)
    idx = rng.choice(len(population), size=k, replace=False)
    best = min(idx, key=lambda i: (population[i].fitness, i))
    return population[best]


def _sbx_child(u: float, y1: float, y2: float, eta: float, bound_gap: float) -> float:
    """betaq for one child given its slack to the nearer bound."""
    beta = 1.0 + 2.0 * bound_gap / (y2 - y1)
    alpha = 2.0 - beta ** -(eta + 1.0)
    if u <= 1.0 / alpha:
        return (u * alpha) ** (1.0 / (eta + 1.0))
    return (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))


def sbx_crossover(p1, p2, eta_c: float, lower, upper, rng):
    """Bounded SBX on gene vectors; returns two children within bounds.

    Each gene crosses with probability 1/2 (one spread draw shared by both
    children, random child swap), otherwise both children copy the parents.
    The bounded spread factors keep children inside [lower, upper] without
    post-hoc clamping; the final clip only guards float roundoff.
    """
    rng = make_rng(rng)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    c1, c2 = p1.copy(), p2.copy()
    for i in range(p1.size):
        if rng.random() > 0.5 or abs(p1[i] - p2[i]) <= _SBX_EPS:
            continue
        y1, y2 = (p1[i], p2[i]) if p1[i] < p2[i] else (p2[i], p1[i])
        u = rng.random()
        bq1 = _sbx_child(u, y1, y2, eta_c, y1 - lower[i])
        bq2 = _sbx_child(u, y1, y2, eta_c, upper[i] - y2)
        a = 0.5 * ((y1 + y2) - bq1 * (y2 - y1))
        b = 0.5 * ((y1 + y2) + bq2 * (y2 - y1))
        if rng.random() <= 0.5:
            a, b = b, a
        c1[i] = min(max(a, lower[i]), upper[i])
        c2[i] = min(max(b, lower[i]), upper[i])
    return c1, c2


def polynomial_mutation(genes, eta_m: float, lower, upper, mutation_probability: float, rng):
    """Deb's bounded polynomial mutation, applied gene-wise."""
    rng = make_rng(rng)
    out = np.asarray(genes, dtype=float).copy()
    for i in range(out.size):
        if rng.random() >= mutation_probability:
            continue
        y, yl, yu = out[i], lower[i], upper[i]
        span = yu - yl
        if span <= 0.0:
            continue
        u = rng.random()
        mut_pow = 1.0 / (eta_m + 1.0)
        if u <= 0.5:
            xy = 1.0 - (y - yl) / span
            val = 2.0 * u + (1.0 - 2.0 * u) * xy ** (eta_m + 1.0)
            deltaq = val**mut_pow - 1.0
        else:
            xy = 1.0 - (yu - y) / span
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta_m + 1.0)
            deltaq = 1.0 - val**mut_pow
        out[i] = min(max(y + deltaq * span, yl), yu)
    return out


def static_penalty(summaries: dict, spec: ConstraintSpec) -> float:
    """Sum of weight * max(0, normalized violation)^2 over active constraints."""
    penalty = 0.0
    for limit, key in ((spec.v_star, "v_ca"), (spec.theta_max, "max_metal_temperature"),
                       (spec.sigma_allow, "sigma_e_max")):
        if limit is None:
            continue
        value = summaries.get(key)
        if value is None:
            raise MissingSummary(f"{key} required by an active constraint")
        penalty += spec.weight * max(0.0, value / limit - 1.0) ** 2
    return penalty


class FitnessEvaluator:
    """Hybrid surrogate/FEM fitness for one problem and constraint case."""

    def __init__(self, solver: ThermoelasticSolver, objective: str,
                 constraints: ConstraintSpec, sigma_star: float | None = None,
                 stress_model=None, temp_model=None):
        if objective not in ("sigma_e_max", "v_ca"):
            raise ValueError("objective must be sigma_e_max or v_ca")
        if sigma_star is not None and stress_model is None:
            raise ValueError("surrogate dispatch needs a stress model")
        self.solver = solver
        self.objective = objective
        self.constraints = constraints
        self.sigma_star = sigma_star
        self.stress_model = stress_model
        self.temp_model = temp_model
        cfg = solver.config
        self._grid_pts = grid_points(cfg.L, cfg.H, cfg.nx, cfg.ny)

    def evaluate(self, genes: GradationGenes) -> Individual:
        px, py = genes_to_profiles(genes)
        cfg = self.solver.config
        profile = tensor_product(px, py, L=cfg.L, H=cfg.H)
        dnn_sigma = None
        if self.sigma_star is not None:
            dnn_sigma = float(self.stress_model.predict(px.values, py.values)[0])
        use_surrogate = self.sigma_star is not None and (
            self.sigma_star == 0.0 or dnn_sigma >= self.sigma_star
        )
        if use_surrogate:
            summaries = {"sigma_e_max": dnn_sigma, "v_ca": average_ceramic_fraction(profile),
                         "max_metal_temperature": None}
            if cfg.uniform_delta_theta is not None:
                summaries["max_metal_temperature"] = float(cfg.uniform_delta_theta)
            elif self.temp_model is not None:
                temps = self.temp_model.predict(px.values, py.values, self._grid_pts)
                metal = profile.grid.ravel() < 1.0
                summaries["max_metal_temperature"] = float(temps[metal].max()) if metal.any() else None
            source = "surrogate"
        else:
            summaries = self.solver.run(profile).summary()
            source = "fem"
        objective = summaries[self.objective]
        penalty = static_penalty(summaries, self.constraints)
        return Individual(genes=genes, objective=float(objective), penalty=float(penalty),
                          fitness=float(objective + penalty), eval_source=source,
                          dnn_sigma=dnn_sigma, **summaries)


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    best_objective: float
    best_penalty: float
    feasible_fraction: float
    eval_sources: dict


@dataclass
class RunRecord:
    config: GAConfig
    generations: list
    best: Individual
    population: list = field(repr=False)

    @property
    def eval_source_totals(self) -> dict:
        return {k: sum(g.eval_sources[k] for g in self.generations) for k in ("surrogate", "fem")}


def evolve(config: GAConfig, evaluator: FitnessEvaluator,
           gen_config_x: GenerationConfig, gen_config_y: GenerationConfig) -> RunRecord:
    """Run the GA loop; deterministic for a fixed config.seed.

    Initial population comes from the random profile generation scheme, not
    uniform gene sampling.  Elites are copied untouched (no crossover or
    mutation); termination needs min_generations completed and the best
    fitness improving by at most stall_tolerance over stall_generations.
    """
    rng = derived_rng(config.seed, 0x6A)
    population = [
        evaluator.evaluate(generate_genes(rng, gen_config_x, gen_config_y))
        for _ in range(config.population_size)
    ]
    stats: list[GenerationStats] = []
    best_trace: list[float] = []
    g = 0
    while True:
        order = sorted(range(len(population)), key=lambda i: (population[i].fitness, i))
        best = population[order[0]]
        feasible = sum(1 for ind in population if ind.penalty == 0.0) / len(population)
        sources = {k: sum(ind.eval_source == k for ind in population) for k in ("surrogate", "fem")}
        stats.append(GenerationStats(
            generation=g,
            best_fitness=best.fitness,
            best_objective=best.objective,
            best_penalty=best.penalty,
            feasible_fraction=feasible,
            eval_sources=sources,
        ))
        best_trace.append(best.fitness)

        done = False
        if g + 1 >= config.min_generations and len(best_trace) > config.stall_generations:
            improvement = best_trace[-1 - config.stall_generations] - best_trace[-1]
            done = improvement <= config.stall_tolerance
        if config.max_generations is not None and g + 1 >= config.max_generations:
            done = True
        if done:
            return RunRecord(config=config, generations=stats, best=best, population=population)

        eta_c = eta_schedule(config.eta_c_base, g, config.eta_floor, config.eta_exponent_sign)
        eta_m = eta_schedule(config.eta_m_base, g, config.eta_floor, config.eta_exponent_sign)
        next_pop = [population[i] for i in order[: config.elite_count]]
        template = population[0].genes
        lower, upper = template.lower, template.upper
        while len(next_pop) < config.population_size:
            pa = tournament_select(population, config.tournament_size, rng)
            pb = tournament_select(population, config.tournament_size, rng)
            c1, c2 = sbx_crossover(pa.genes.flatten(), pb.genes.flatten(), eta_c, lower, upper, rng)
            for child in (c1, c2):
                if len(next_pop) >= config.population_size:
                    break
                mutated = polynomial_mutation(child, eta_m, lower, upper,
                                              config.mutation_probability, rng)
                next_pop.append(evaluator.evaluate(template.replace_vector(mutated)))
        population = next_pop
        g += 1
