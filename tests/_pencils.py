"""Planted rank-deficient pencils shared by the test modules."""

from qflow import apps


def planted_pencil(rng, n, r, s, m, noise=0.0):
    """The m slices P M_k Q of a pencil whose n x n M_k vanish on rows :r,
    columns n-s:; with r + s > n the zero block caps its nc-rank at
    2n - r - s.  With noise set, the block holds Gaussian entries of that
    size relative to the largest entry of the M_k instead of zeros."""
    def gauss(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    P, Q = gauss((n, n)), gauss((n, n))
    mats = []
    for _ in range(m):
        M = gauss((n, n))
        M[:r, n - s:] = 0.0
        mats.append(M)
    if noise:
        peak = max(abs(M).max() for M in mats)
        for M in mats:
            M[:r, n - s:] = noise * peak * gauss((r, s))
    return apps.MatrixPencil([P @ M @ Q for M in mats])
