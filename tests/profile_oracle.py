"""Reference decoding of one axis's genes, shared by the profile and GA tests."""

import numpy as np


def gene_vector(phi_x1, phi_y1, alphas_x, alphas_y):
    """[phi_x1, phi_y1, x-ratios, y-ratios]: the gene vector of the given parts."""
    return np.concatenate(([phi_x1, phi_y1], alphas_x, alphas_y))


def axis_genes(genes, nx):
    """((phi_x1, x-ratios), (phi_y1, y-ratios)) of the gene vector of a plate nx elements wide."""
    return (genes[0], genes[2 : nx + 1]), (genes[1], genes[nx + 1 :])


def replay_loop(phi1, alphas):
    """The bounded-ratio recursion one node at a time: phi[i+1] = min(1, a[i] * phi[i]),
    rescaled by 1/phi[n] when the last node ends below 1, then capped at 1 (a first
    node admitted just above 1)."""
    n = alphas.size + 1
    values = np.zeros(n + 1)
    values[1] = phi1
    for i in range(1, n):
        values[i + 1] = min(1.0, alphas[i - 1] * values[i])
    if values[n] < 1.0:
        values[1:] /= values[n]
    return np.minimum(values, 1.0)
