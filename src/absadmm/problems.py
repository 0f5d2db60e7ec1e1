"""Problem construction: composite objectives f(x) + g(y) subject to Ax - y = 0.

The smooth part f is a finite-sum loss (logistic or sigmoid) plus an optional
ridge term; the nonsmooth part g is a weighted L1 penalty on y = Ax.  A is
stored as COO triplets and applied in O(nnz); both built-in families make it
sparse (a difference matrix, or edge rows stacked over the identity), and
their builders return ``ConstraintSpec`` subclasses whose products read that
structure from the triplets instead of scattering through them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import UnsupportedProblemError
from .linalg import extreme_eigvals_ata

__all__ = [
    "ConstraintSpec",
    "NonsmoothSpec",
    "ProblemInstance",
    "build_difference_matrix",
    "build_fused_logistic",
    "build_graph_guided",
    "batch_mean_grad",
    "batch_grad_difference",
    "full_gradient",
    "smooth_value_and_gradient",
    "objective",
    "penalty_value",
    "prox_g",
]

# Loss margins are clamped here before exponentials to avoid overflow; the
# induced error is below 1e-15 in double precision.
Z_CLIP = 35.0
# the bounds as 0-d arrays: a Python float operand is converted on every ufunc
# call, which at batch sizes costs about as much as the clamp itself
_Z_LO, _Z_HI = np.array(-Z_CLIP), np.array(Z_CLIP)


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """The split Ax - y = 0, with A (m x d1, full column rank) as COO triplets.

    B = -I and c = 0 are implied, so the penalty acts on y = Ax.  Entries that
    repeat a (row, col) pair add up.  The extreme eigenvalues of A^T A are
    computed once, here, and cached as ``spectrum`` = (smallest, largest).
    Equality and hashing are by identity.  ``matvec`` and ``rmatvec`` scatter
    through the triplets; the two built-in builders return subclasses that
    override only these two products to use their own layout.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    m: int
    d1: int
    spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        vals = np.asarray(self.vals, dtype=np.float64)
        m, d1 = int(self.m), int(self.d1)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != vals.shape:
            raise ValueError(
                f"rows, cols and vals must be 1-d of one length: "
                f"{rows.shape}, {cols.shape}, {vals.shape}"
            )
        if d1 < 1:
            raise ValueError("d1 must be at least 1")
        if rows.size and not (
            0 <= rows.min() and rows.max() < m and 0 <= cols.min() and cols.max() < d1
        ):
            raise ValueError(f"triplet index outside the {m} x {d1} matrix")
        if not np.all(np.isfinite(vals)):
            raise ValueError("vals contains non-finite entries")
        # Assumption on the coupling: A^T A must be positive definite.
        lo, hi = extreme_eigvals_ata(rows, cols, vals, d1)
        if lo < 1e-12:
            raise ValueError("A is rank deficient: smallest eigenvalue of A^T A < 1e-12")
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        for name, value in (
            ("rows", rows), ("cols", cols), ("vals", vals), ("m", m), ("d1", d1),
            ("spectrum", (lo, hi)),
        ):
            object.__setattr__(self, name, value)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x in O(nnz)."""
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.m)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """A^T @ u in O(nnz)."""
        return np.bincount(self.cols, self.vals * u[self.rows], minlength=self.d1)

    @property
    def A(self) -> np.ndarray:
        """A as a dense m x d1 array, built anew on every access."""
        A = np.zeros((self.m, self.d1))
        np.add.at(A, (self.rows, self.cols), self.vals)
        return A


class _DifferenceMatrix(ConstraintSpec):
    """The triplets of ``build_difference_matrix``: (A x)_i = x_i - x_{i+1},
    and the last row reads x_{d-1} alone."""

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = x.astype(np.float64)
        out[:-1] -= x[1:]
        return out

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        out = u.astype(np.float64)
        out[1:] -= u[:-1]
        return out


class _GraphIncidence(ConstraintSpec):
    """The triplets of ``build_graph_guided``: the e edge rows' heads, then
    their tails, then the identity, so ``cols`` holds heads and tails as
    contiguous blocks and A x = [x[heads] - x[tails]; x]."""

    def matvec(self, x: np.ndarray) -> np.ndarray:
        e = self.m - self.d1
        return np.concatenate([x[self.cols[:e]] - x[self.cols[e : 2 * e]], x])

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        e = self.m - self.d1
        # u's identity block first: bincount of no edges gives integer zeros
        out = u[e:] + np.bincount(self.cols[:e], u[:e], minlength=self.d1)
        out -= np.bincount(self.cols[e : 2 * e], u[:e], minlength=self.d1)
        return out


@dataclass(frozen=True)
class NonsmoothSpec:
    """Nonsmooth penalty g(y) = weight * ||y||_1."""

    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight < math.inf:
            raise ValueError("penalty weight must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A finite-sum composite problem min f(x) + g(y) s.t. Ax - y = 0.

    Equality and hashing are by identity.
    """

    dataset: Dataset
    loss: str
    ridge: float
    constraint: ConstraintSpec
    g: NonsmoothSpec

    def __post_init__(self):
        if self.loss not in ("logistic", "sigmoid"):
            raise UnsupportedProblemError(f"unsupported loss {self.loss!r}")
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be nonnegative and finite")
        if self.constraint.d1 != self.dataset.d:
            raise ValueError(
                f"A has {self.constraint.d1} columns but data has {self.dataset.d} features"
            )

    @property
    def n(self) -> int:
        return self.dataset.n


def _clamp(z: np.ndarray) -> np.ndarray:
    """z clamped to [-Z_CLIP, Z_CLIP] in a new array; bitwise ``np.clip``."""
    z = np.maximum(z, _Z_LO)
    return np.minimum(z, _Z_HI, out=z)


def _loss_slopes(loss: str, z: np.ndarray) -> np.ndarray:
    """d loss / d z at margin z, with z clamped to avoid overflow."""
    z = _clamp(z)
    ez = np.exp(z)
    if loss == "logistic":
        return -1.0 / (1.0 + ez)
    # sigmoid loss 1/(1+e^z)
    return -ez / (1.0 + ez) ** 2


def _loss_values(loss: str, z: np.ndarray) -> np.ndarray:
    """Loss at margin z, with z clamped like the slopes.

    The logistic value log(1 + e^-z) is formed as max(-z, 0) + log1p(e^-|z|),
    within 2 ulp of ``np.logaddexp(0, -z)`` and several times faster, since
    ``exp`` and ``log1p`` are vectorized and ``logaddexp`` is not.
    """
    z = _clamp(z)
    if loss == "logistic":
        out = np.exp(-np.abs(z))
        np.log1p(out, out=out)
        out += np.maximum(-z, 0.0)
        return out
    return 1.0 / (1.0 + np.exp(z))


def _mean_grad(p: ProblemInstance, x, feats, labs, z) -> np.ndarray:
    """Mean component gradient at x over the rows (feats, labs) with margins z."""
    coef = _loss_slopes(p.loss, z) * labs
    grad = feats.T @ coef / labs.shape[0]
    if p.ridge:
        grad = grad + p.ridge * x
    return grad


def _mean_value(p: ProblemInstance, x, z) -> float:
    """Smooth part f(x) from the margins z of all rows."""
    val = float(np.mean(_loss_values(p.loss, z)))
    if p.ridge:
        val += 0.5 * p.ridge * float(x @ x)
    return val


def batch_mean_grad(p: ProblemInstance, x: np.ndarray, idx) -> np.ndarray:
    """Mean of per-component gradients over ``idx``, in the order given.

    The rows are gathered, whatever the batch; the exact gradient over the
    whole set, read in place, is ``full_gradient``.  The reduction runs over
    the index order supplied by the caller, so a canonical (sorted) order
    gives bit-reproducible results.
    """
    idx = np.asarray(idx, dtype=np.intp)
    feats, labs = p.dataset.features.take(idx, axis=0), p.dataset.labels.take(idx)
    return _mean_grad(p, x, feats, labs, labs * (feats @ x))


def batch_grad_difference(p: ProblemInstance, x, ref_x, idx) -> np.ndarray:
    """grad_I(x) - grad_I(ref_x), the difference of the mean component
    gradients over ``idx``, from one gather and one X_I^T product.

    Both points share the rows, so with s the loss slope at a margin, the
    difference is X_I^T (y_I * (s(z_x) - s(z_ref))) / |I| + ridge * (x - ref_x).
    When x equals ref_x, the slopes cancel exactly and the result is +0.0
    throughout.
    """
    idx = np.asarray(idx, dtype=np.intp)
    feats, labs = p.dataset.features.take(idx, axis=0), p.dataset.labels.take(idx)
    coef = _loss_slopes(p.loss, labs * (feats @ x))
    coef -= _loss_slopes(p.loss, labs * (feats @ ref_x))
    coef *= labs
    diff = feats.T @ coef / labs.shape[0]
    if p.ridge:
        diff += p.ridge * (x - ref_x)
    return diff


def full_gradient(p: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Exact gradient of f at x, reduced in index order 0..n-1."""
    ds = p.dataset
    return _mean_grad(p, x, ds.features, ds.labels, ds.labels * (ds.features @ x))


def smooth_value_and_gradient(p: ProblemInstance, x: np.ndarray):
    """f(x) and its exact gradient from one pass over the data: X @ x is formed once."""
    ds = p.dataset
    z = ds.labels * (ds.features @ x)
    return _mean_value(p, x, z), _mean_grad(p, x, ds.features, ds.labels, z)


def penalty_value(g: NonsmoothSpec, y: np.ndarray) -> float:
    """g(y) = weight * ||y||_1."""
    return g.weight * float(np.abs(y).sum())


def objective(p: ProblemInstance, x: np.ndarray) -> float:
    """Composite objective f(x) + g(Ax), with f(x) = mean_i loss_i(x) + ridge/2 ||x||^2."""
    f = _mean_value(p, x, p.dataset.labels * (p.dataset.features @ x))
    return f + penalty_value(p.g, p.constraint.matvec(x))


def prox_g(v: np.ndarray, t: float, g: NonsmoothSpec) -> np.ndarray:
    """Proximal map of t*g at v: coordinate-wise soft thresholding."""
    if not t > 0.0:
        raise ValueError("prox step t must be positive")
    thr = t * g.weight
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def build_difference_matrix(d: int) -> ConstraintSpec:
    """Square d x d forward-difference operator: unit diagonal, -1 superdiagonal."""
    if d < 1:
        raise ValueError("d must be at least 1")
    diag, sup = np.arange(d), np.arange(d - 1)
    return _DifferenceMatrix(
        rows=np.concatenate([diag, sup]),
        cols=np.concatenate([diag, sup + 1]),
        vals=np.concatenate([np.ones(d), -np.ones(d - 1)]),
        m=d,
        d1=d,
    )


def build_fused_logistic(ds: Dataset, weight: float) -> ProblemInstance:
    """Logistic loss with a fused (successive-difference) L1 penalty.

    min (1/n) sum_i log(1 + exp(-b_i a_i^T x)) + weight * ||Ax||_1
    with A the square difference matrix, written as the split problem
    f(x) + g(y) s.t. Ax - y = 0.
    """
    return ProblemInstance(
        dataset=ds,
        loss="logistic",
        ridge=0.0,
        constraint=build_difference_matrix(ds.d),
        g=NonsmoothSpec(weight=weight),
    )


def build_graph_guided(
    ds: Dataset, l1: float, l2: float, corr_threshold: float = 0.7
) -> ProblemInstance:
    """Sigmoid loss with ridge and a graph-guided L1 penalty.

    The graph has an edge (p, q) whenever the absolute empirical correlation
    of features p and q reaches ``corr_threshold``; each edge contributes a
    row (+1 at p, -1 at q) to G, and A stacks G over the identity so the
    penalty covers both edge differences and the plain L1 norm.
    """
    if not 0.0 < corr_threshold <= 1.0:
        raise ValueError("corr_threshold must lie in (0, 1]")
    d = ds.d
    heads = tails = np.zeros(0, dtype=np.intp)
    if d > 1 and ds.n > 1:  # one row's corrcoef is all NaN, with a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            corr = np.corrcoef(ds.features, rowvar=False)
        np.nan_to_num(corr, copy=False, nan=0.0)  # constant columns carry no edges
        # pairs (p < q) in row-major order
        heads, tails = np.nonzero(np.triu(np.abs(corr) >= corr_threshold, 1))
    e = heads.size
    edges = np.arange(e)
    cs = _GraphIncidence(
        rows=np.concatenate([edges, edges, e + np.arange(d)]),
        cols=np.concatenate([heads, tails, np.arange(d)]),
        vals=np.concatenate([np.ones(e), -np.ones(e), np.ones(d)]),
        m=e + d,
        d1=d,
    )
    return ProblemInstance(
        dataset=ds,
        loss="sigmoid",
        ridge=l2,
        constraint=cs,
        g=NonsmoothSpec(weight=l1),
    )
