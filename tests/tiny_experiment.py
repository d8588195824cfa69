"""The tiny GA experiment that the command-line and pipeline tests run."""


def tiny_experiment(generations=2, **keys):
    """A problem-2, case-1 experiment of seed 3 whose GA evolves 6 individuals for
    ``generations`` generations.  Of the ga keys it sets only the population size and the
    generation counts; ``keys`` replace or add top-level keys."""
    return {"problem": "problem2", "case": "case1", "seed": 3,
            "ga": {"population_size": 6, "min_generations": generations,
                   "max_generations": generations}, **keys}
