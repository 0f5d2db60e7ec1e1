"""The spectral routine for the coupling matrix A, stored as COO triplets."""

import numpy as np

__all__ = ["extreme_eigvals_ata"]


def _gram(rows, cols, vals, d1: int) -> np.ndarray:
    """Dense d1 x d1 Gram matrix A^T A of the triplets (rows, cols, vals).

    Every pair of entries sharing a row adds vals[i] * vals[j] at
    (cols[i], cols[j]), so the cost is the sum of squared row lengths: about
    2 * nnz for incidence rows, and never an m x m or m x d1 array.
    """
    order = np.argsort(rows, kind="stable")
    r, c, v = rows[order], cols[order], vals[order]
    # after the sort a row's entries are contiguous; pair each entry with
    # every entry of its row, [first, first + per)
    first = np.searchsorted(r, r, side="left")
    per = np.searchsorted(r, r, side="right") - first
    start = np.cumsum(per) - per  # where each entry's pairs begin
    left = np.repeat(np.arange(r.size), per)
    right = np.arange(left.size) + np.repeat(first - start, per)
    flat = c[left] * d1 + c[right]
    return np.bincount(flat, weights=v[left] * v[right], minlength=d1 * d1).reshape(d1, d1)


def extreme_eigvals_ata(rows, cols, vals, d1: int):
    """(smallest, largest) eigenvalue of A^T A by one dense symmetric eigensolve."""
    w = np.linalg.eigvalsh(_gram(rows, cols, vals, d1))
    return float(w[0]), float(w[-1])
