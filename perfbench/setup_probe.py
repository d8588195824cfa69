"""Time one cold set-up: imports, solver construction and model load.

Usage: python3 perfbench/setup_probe.py PROBLEM[,PROBLEM...] [MODEL_FILE ...]
Prints the seconds from the first line of this script to a ready solver and
loaded models.  run.py starts it several times per run and reports the median.
"""

import time

T0 = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fgmopt import fem, neural, problems  # noqa: E402  (imports the whole package)


def main(argv):
    for pid in argv[0].split(","):
        fem.ThermoelasticSolver(problems.get_problem(pid))
    for path in argv[1:]:
        neural.load_model(path)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main(sys.argv[1:])
