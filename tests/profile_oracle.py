"""Reference decoding of one axis's genes, shared by the profile and GA tests."""

import numpy as np

from fgmopt.profiles import Profile1D


def replay_loop(phi1, alphas):
    """The bounded-ratio recursion one node at a time: phi[i+1] = min(1, a[i] * phi[i]),
    rescaled by 1/phi[n] when the last node ends below 1."""
    n = alphas.size + 1
    values = np.zeros(n + 1)
    values[1] = phi1
    for i in range(1, n):
        values[i + 1] = min(1.0, alphas[i - 1] * values[i])
    if values[n] < 1.0:
        values[1:] /= values[n]
    return Profile1D(values)
