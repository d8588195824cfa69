"""Real-coded genetic algorithm over gradation genes.

Minimization throughout: fitness = objective + static penalty, tournament
selection picks the smallest fitness.  Recombination is Deb's bounded
simulated binary crossover (per-gene application with probability 1/2,
spread exponent eta_c), variation is Deb's bounded polynomial mutation
(per-gene probability, exponent eta_m).  Both exponents follow the
printed generation schedule base * [1 + (1 - exp(g/100))/2], which
decreases with the generation g and is floored at 0.01; the bases are
ETA_C_BASE = 2 and ETA_M_BASE = 10.

Selection and both operators work on a whole generation, so ``evolve``
selects and varies it in one call each.  Each call draws all its uniforms at
once, and that draw order is part of the contract (a seed's trajectory
depends on it): tournament selection takes ``rng.random((n, pop))``, one row
of keys per tournament whose k smallest pick the entrants; SBX takes
``rng.random((3, *shape))`` as cross decision, spread and swap; mutation
takes ``rng.random((2, *shape))`` as mutation decision and perturbation.

Fitness dispatch is hybrid: a stress surrogate predicts the peak effective
stress; above the trust threshold sigma_star the surrogate path supplies the
objective (temperature field from the operator net where a thermal
constraint needs it, average ceramic fraction always by exact quadrature of
the axis profiles, with no 2D field formed), otherwise the full FEM
evaluation runs.  sigma_star = None forces FEM everywhere, sigma_star = 0
forces the surrogate everywhere.

A generation's counts (``evaluation_counts``) cover the individuals evaluated
in it, so run totals are the exact number of evaluations; its best and
feasible fraction describe the population.  ``prediction_error`` measures a
prediction against FEM, per generation and at the verified optimum.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import MissingSummary
from .fem import ThermoelasticSolver
from .profiles import (
    GradationGenes,
    average_ceramic_fraction,
    gene_bounds,
    generate_genes,
    genes_to_profiles,
    grid_points,
    metal_maximum,
    tensor_product,
)
from .rng import derived_rng, make_rng

log = logging.getLogger(__name__)

_SBX_EPS = 1e-14
ETA_C_BASE, ETA_M_BASE = 2.0, 10.0


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 200
    tournament_size: int = 4
    mutation_probability: float = 0.3
    elite_count: int = 2
    min_generations: int = 50
    stall_generations: int = 10
    stall_tolerance: float = 1.0e3  # objective units; 1e3 Pa = 0.001 MPa
    max_generations: int | None = None

    def __post_init__(self):
        if not (0 < self.elite_count < self.population_size):
            raise ValueError("need 0 < elite_count < population_size")
        if not (1 <= self.tournament_size <= self.population_size):
            raise ValueError("need 1 <= tournament_size <= population_size")
        # a negative window would read the best fitness from the wrong end of the generations
        if not self.stall_generations >= 0:
            raise ValueError(f"stall_generations must be >= 0, got {self.stall_generations!r}")
        # elitism keeps the improvement >= 0, so below 0 (or NaN) the stall test never holds
        if not self.stall_tolerance >= 0.0:
            raise ValueError(f"stall_tolerance must be >= 0, got {self.stall_tolerance!r}")
        if not 0.0 <= self.mutation_probability <= 1.0:  # NaN would never mutate
            raise ValueError(f"mutation_probability must lie in [0, 1], "
                             f"got {self.mutation_probability!r}")


@dataclass(frozen=True)
class ConstraintSpec:
    """Inequality constraints; normalized quadratic hinge penalties."""

    v_star: float | None = None  # average ceramic fraction limit
    theta_max: float | None = None  # max temperature over the metallic region
    sigma_allow: float | None = None  # peak effective stress limit [Pa]
    penalty_weight: float = 1.0e8  # shared by every constraint, objective units


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


def eta_schedule(base: float, g: int) -> float:
    """Generation-dependent distribution index, floored at 0.01 to stay positive."""
    return max(base * (1.0 + 0.5 * (1.0 - math.exp(g / 100.0))), 0.01)


def tournament_select(rank, k: int, n: int, rng) -> np.ndarray:
    """Indices of the winners of ``n`` tournaments of ``k`` distinct individuals.

    ``rank[i]`` is individual i's place in the population's stable fitness
    order, so the lowest rank is the best, equal fitness goes to the lowest
    index and a NaN fitness comes last.  One draw, ``rng.random((n, pop))``:
    the k smallest keys of each row are that tournament's entrants, and the
    entrant of lowest rank wins.
    """
    rng = make_rng(rng)
    rank = np.asarray(rank)
    entrants = np.argpartition(rng.random((n, rank.size)), k - 1, axis=1)[:, :k]
    return entrants[np.arange(n), rank[entrants].argmin(axis=1)]


def sbx_crossover(p1, p2, eta_c: float, lower, upper, rng):
    """Bounded SBX on a gene vector or on (rows, genes) arrays of parent pairs.

    Each gene crosses with probability 1/2 (one spread draw shared by both
    children, random child swap), otherwise both children copy the parents.
    The bounded spread factors keep children inside [lower, upper] without
    post-hoc clamping; the final clip only guards float roundoff.  The
    uniforms are one draw, ``rng.random((3, *shape))``: cross decision,
    spread, swap.
    """
    rng = make_rng(rng)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    cross_u, u, swap_u = rng.random((3, *p1.shape))
    cross = (cross_u <= 0.5) & (np.abs(p1 - p2) > _SBX_EPS)
    y1, y2 = np.minimum(p1, p2), np.maximum(p1, p2)
    dy = np.where(cross, y2 - y1, 1.0)  # genes that do not cross are discarded below
    exp = eta_c + 1.0

    def betaq(bound_gap):
        alpha = 2.0 - (1.0 + 2.0 * bound_gap / dy) ** -exp
        return np.where(u <= 1.0 / alpha, u * alpha, 1.0 / (2.0 - u * alpha)) ** (1.0 / exp)

    a = np.clip(0.5 * ((y1 + y2) - betaq(y1 - lower) * dy), lower, upper)
    b = np.clip(0.5 * ((y1 + y2) + betaq(upper - y2) * dy), lower, upper)
    swap = swap_u <= 0.5
    return np.where(cross, np.where(swap, b, a), p1), np.where(cross, np.where(swap, a, b), p2)


def polynomial_mutation(genes, eta_m: float, lower, upper, mutation_probability: float, rng):
    """Deb's bounded polynomial mutation of a gene vector or a (rows, genes) array.

    Each gene mutates with ``mutation_probability`` when its span is positive.
    The uniforms are one draw, ``rng.random((2, *shape))``: mutation
    decision, perturbation.
    """
    rng = make_rng(rng)
    y = np.asarray(genes, dtype=float)
    mutate_u, u = rng.random((2, *y.shape))
    span = upper - lower
    mutate = (mutate_u < mutation_probability) & (span > 0.0)
    safe_span = np.where(span > 0.0, span, 1.0)  # genes that do not mutate are discarded below
    exp = eta_m + 1.0
    low = u <= 0.5
    xy_exp = (1.0 - np.where(low, y - lower, upper - y) / safe_span) ** exp
    val = np.where(low, 2.0 * u + (1.0 - 2.0 * u) * xy_exp,
                   2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy_exp) ** (1.0 / exp)
    deltaq = np.where(low, val - 1.0, 1.0 - val)
    return np.where(mutate, np.clip(y + deltaq * span, lower, upper), y)


def static_penalty(summaries: dict, spec: ConstraintSpec) -> float:
    """Sum of penalty_weight * max(0, normalized violation)^2 over active constraints.

    A NaN value of a constrained quantity (a NaN surrogate prediction) is
    infeasible: its penalty is +inf, where ``max(0, nan)`` would read 0.
    """
    penalty = 0.0
    for limit, key in ((spec.v_star, "v_ca"), (spec.theta_max, "max_metal_temperature"),
                       (spec.sigma_allow, "sigma_e_max")):
        if limit is None:
            continue
        value = summaries.get(key)
        if value is None:
            raise MissingSummary(f"{key} required by an active constraint")
        violation = value / limit - 1.0
        penalty += (math.inf if math.isnan(violation)
                    else spec.penalty_weight * max(0.0, violation) ** 2)
    return penalty


class FitnessEvaluator:
    """Hybrid surrogate/FEM fitness for one problem and constraint case."""

    def __init__(self, solver: ThermoelasticSolver, objective: str,
                 constraints: ConstraintSpec, sigma_star: float | None = None,
                 stress_model=None, temp_model=None):
        if objective not in ("sigma_e_max", "v_ca"):
            raise ValueError("objective must be sigma_e_max or v_ca")
        if sigma_star is not None and not sigma_star >= 0.0:  # NaN fails >=
            raise ValueError(f"sigma_star must be None or >= 0, got {sigma_star!r}")
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
        dnn_sigma = None
        if self.sigma_star is not None:
            dnn_sigma = float(self.stress_model.predict(px.values, py.values)[0])
        use_surrogate = self.sigma_star is not None and (
            self.sigma_star == 0.0 or dnn_sigma >= self.sigma_star
        )
        if use_surrogate:
            summaries = {"sigma_e_max": dnn_sigma, "v_ca": average_ceramic_fraction(px, py),
                         "max_metal_temperature": None}
            if cfg.uniform_delta_theta is not None:
                summaries["max_metal_temperature"] = float(cfg.uniform_delta_theta)
            elif self.temp_model is not None:
                temps = self.temp_model.predict(px.values, py.values, self._grid_pts)
                summaries["max_metal_temperature"] = metal_maximum(  # grid of tensor_product
                    temps, np.outer(px.values, py.values).ravel())
            source = "surrogate"
        else:
            summaries = self.solver.run(tensor_product(px, py)).summary()
            source = "fem"
        objective = summaries[self.objective]
        penalty = static_penalty(summaries, self.constraints)
        return Individual(genes=genes, objective=float(objective), penalty=float(penalty),
                          fitness=float(objective + penalty), eval_source=source,
                          dnn_sigma=dnn_sigma, **summaries)


@dataclass
class GenerationStats:
    """One generation: the population's best and feasible fraction, then the
    ``evaluation_counts`` of the individuals evaluated in that generation."""

    generation: int
    best_fitness: float
    best_objective: float
    best_penalty: float
    feasible_fraction: float
    eval_sources: dict  # evaluations per route, "surrogate" and "fem"
    surrogate_rel_error: float | None  # largest prediction_error of a FEM-routed evaluation
    nan_predictions: int
    negative_predictions: int


def prediction_error(predicted: float, fem: float) -> float:
    """Relative error |predicted - fem| / fem of a surrogate prediction against FEM."""
    return abs(predicted - fem) / max(fem, 1e-30)


def evaluation_counts(evaluated) -> dict:
    """Routes, NaN and negative predictions, and the largest ``prediction_error`` of a
    FEM-routed individual with a non-NaN prediction (None without one), over ``evaluated``.

    A NaN prediction routes to FEM when sigma_star > 0; with sigma_star = 0
    it, or a negative one, becomes the stress value (under a stress limit, a
    NaN is infeasible: ``static_penalty``).  These are only counted.
    """
    preds = [ind.dnn_sigma for ind in evaluated if ind.dnn_sigma is not None]
    errors = [prediction_error(ind.dnn_sigma, ind.sigma_e_max) for ind in evaluated
              if ind.eval_source == "fem" and ind.dnn_sigma is not None
              and not math.isnan(ind.dnn_sigma)]
    return {
        "eval_sources": {k: sum(ind.eval_source == k for ind in evaluated)
                         for k in ("surrogate", "fem")},
        "surrogate_rel_error": max(errors) if errors else None,
        "nan_predictions": sum(math.isnan(p) for p in preds),
        "negative_predictions": sum(p < 0.0 for p in preds),
    }


@dataclass
class RunRecord:
    generations: list
    best: Individual
    population: list = field(repr=False)

    @property
    def eval_source_totals(self) -> dict:
        return {k: sum(g.eval_sources[k] for g in self.generations) for k in ("surrogate", "fem")}

    @property
    def bad_prediction_totals(self) -> dict:
        """NaN and negative surrogate predictions over the whole run."""
        return {k: sum(getattr(g, k) for g in self.generations)
                for k in ("nan_predictions", "negative_predictions")}


def evolve(config: GAConfig, evaluator: FitnessEvaluator, seed: int) -> RunRecord:
    """Run the GA loop; deterministic for a fixed seed.

    Initial population comes from the random profile generation scheme, not
    uniform gene sampling, on the plate that ``evaluator.solver`` solves.
    Elites are copied untouched (no crossover or mutation); termination needs
    min_generations completed and the best fitness improving by at most
    stall_tolerance over stall_generations.  The population is ranked by a
    stable argsort of fitness: equal fitness goes to the lower index, and a
    NaN fitness comes last, so it is never the best while a number is there.

    Each generation is drawn as arrays before any child is evaluated: one
    ``tournament_select`` call for the 2 * ceil(n_children / 2) parents
    (tournament 2i and 2i + 1 give pair i), one SBX call on the stacked
    pairs, children interleaved c1, c2 per pair (the surplus child of an odd
    count dropped), one mutation call, then one ``evaluate`` per child in
    order.  Each generation's ``GenerationStats`` counts the individuals
    evaluated in it (the initial population, then the children), so elites
    are not counted twice.  One JSON progress line per generation goes to the
    ``fgmopt.ga`` logger at INFO: the ``GenerationStats`` fields plus
    ``wall_s``, seconds since the run started.
    """
    t0 = time.perf_counter()
    rng = derived_rng(seed, 0x6A)
    nx, ny = evaluator.solver.config.nx, evaluator.solver.config.ny
    population = evaluated = [evaluator.evaluate(generate_genes(rng, nx, ny))
                              for _ in range(config.population_size)]
    template = population[0].genes
    lower, upper = gene_bounds(nx, ny)
    n_children = config.population_size - config.elite_count
    stats: list[GenerationStats] = []
    g = 0
    while True:
        order = np.argsort([ind.fitness for ind in population], kind="stable")
        best = population[order[0]]
        latest = GenerationStats(
            generation=g,
            best_fitness=best.fitness,
            best_objective=best.objective,
            best_penalty=best.penalty,
            feasible_fraction=sum(ind.penalty == 0.0 for ind in population) / len(population),
            **evaluation_counts(evaluated),
        )
        stats.append(latest)
        if log.isEnabledFor(logging.INFO):  # the line is built only when it is emitted
            log.info("%s", json.dumps({**asdict(latest),
                                       "wall_s": round(time.perf_counter() - t0, 3)}))

        done = False
        if g + 1 >= config.min_generations and len(stats) > config.stall_generations:
            improvement = stats[-1 - config.stall_generations].best_fitness - best.fitness
            done = improvement <= config.stall_tolerance
        if config.max_generations is not None and g + 1 >= config.max_generations:
            done = True
        if done:
            return RunRecord(generations=stats, best=best, population=population)

        eta_c, eta_m = eta_schedule(ETA_C_BASE, g), eta_schedule(ETA_M_BASE, g)
        rank = np.argsort(order)  # each individual's place in order
        winners = tournament_select(rank, config.tournament_size,
                                    2 * math.ceil(n_children / 2), rng)
        parents = np.array([population[i].genes.vector for i in winners])
        c1, c2 = sbx_crossover(parents[0::2], parents[1::2], eta_c, lower, upper, rng)
        children = np.stack([c1, c2], axis=1).reshape(-1, lower.size)[:n_children]
        children = polynomial_mutation(children, eta_m, lower, upper,
                                       config.mutation_probability, rng)
        evaluated = [evaluator.evaluate(template.replace_vector(c)) for c in children]
        population = [population[i] for i in order[: config.elite_count]] + evaluated
        g += 1
