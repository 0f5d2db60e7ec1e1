"""Problem construction: composite objectives f(x) + g(y) subject to Ax + By = c.

The smooth part f is a finite-sum loss (logistic or sigmoid) plus an optional
ridge term; the nonsmooth part g is a weighted L1 penalty applied through a
linear map.  Both built-in problem families use the canonical split form
B = -I, c = 0, so the penalty acts on y = Ax.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import UnsupportedProblemError

__all__ = [
    "ConstraintSpec",
    "NonsmoothSpec",
    "ProblemInstance",
    "build_difference_matrix",
    "build_fused_logistic",
    "build_graph_guided",
    "batch_mean_grad",
    "full_gradient",
    "smooth_value",
    "objective",
    "penalty_value",
    "prox_g",
]

# Loss margins are clamped here before exponentials to avoid overflow; the
# induced error is below 1e-15 in double precision.
Z_CLIP = 35.0


@dataclass(frozen=True)
class ConstraintSpec:
    """Linear coupling Ax + By = c with A full column rank."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.A, dtype=np.float64))
        B = np.ascontiguousarray(np.asarray(self.B, dtype=np.float64))
        c = np.ascontiguousarray(np.asarray(self.c, dtype=np.float64))
        if A.ndim != 2 or B.ndim != 2 or c.ndim != 1:
            raise ValueError("A and B must be 2-d, c 1-d")
        m = A.shape[0]
        if B.shape[0] != m or c.shape[0] != m:
            raise ValueError(
                f"row counts disagree: A {A.shape}, B {B.shape}, c {c.shape}"
            )
        for name, arr in (("A", A), ("B", B), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        # Assumption on the coupling: A^T A must be positive definite.
        if np.linalg.eigvalsh(A.T @ A)[0] < 1e-12:
            raise ValueError("A is rank deficient: smallest eigenvalue of A^T A < 1e-12")
        for arr in (A, B, c):
            arr.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d1(self) -> int:
        return self.A.shape[1]

    @property
    def d2(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class NonsmoothSpec:
    """Nonsmooth penalty g; only the weighted L1 norm is supported."""

    weight: float
    kind: str = "weighted_l1"

    def __post_init__(self):
        if self.kind != "weighted_l1":
            raise UnsupportedProblemError(f"unsupported penalty kind {self.kind!r}")
        if not self.weight >= 0.0:
            raise ValueError("penalty weight must be nonnegative")


@dataclass(frozen=True)
class ProblemInstance:
    """A finite-sum composite problem min f(x) + g(y) s.t. Ax + By = c."""

    dataset: Dataset
    loss: str
    ridge: float
    constraint: ConstraintSpec
    g: NonsmoothSpec

    def __post_init__(self):
        if self.loss not in ("logistic", "sigmoid"):
            raise UnsupportedProblemError(f"unsupported loss {self.loss!r}")
        if not self.ridge >= 0.0:
            raise ValueError("ridge must be nonnegative")
        if self.constraint.d1 != self.dataset.d:
            raise ValueError(
                f"A has {self.constraint.d1} columns but data has {self.dataset.d} features"
            )
        cs = self.constraint
        canonical = (
            cs.d2 == cs.m
            and np.array_equal(cs.B, -np.eye(cs.m))
            and not cs.c.any()
        )
        object.__setattr__(self, "_canonical_split", canonical)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def canonical_split(self) -> bool:
        """True when B = -I and c = 0, i.e. the penalty acts on y = Ax."""
        return self._canonical_split


def _loss_slopes(loss: str, z: np.ndarray) -> np.ndarray:
    """d loss / d z at margin z, with z clamped to avoid overflow."""
    z = np.clip(z, -Z_CLIP, Z_CLIP)
    ez = np.exp(z)
    if loss == "logistic":
        return -1.0 / (1.0 + ez)
    # sigmoid loss 1/(1+e^z)
    return -ez / (1.0 + ez) ** 2


def _loss_values(loss: str, z: np.ndarray) -> np.ndarray:
    z = np.clip(z, -Z_CLIP, Z_CLIP)
    if loss == "logistic":
        return np.logaddexp(0.0, -z)
    return 1.0 / (1.0 + np.exp(z))


def batch_mean_grad(p: ProblemInstance, x: np.ndarray, idx) -> np.ndarray:
    """Mean of per-component gradients over ``idx``, in the order given.

    The reduction runs over the index order supplied by the caller, so a
    canonical (sorted) order gives bit-reproducible results.
    """
    idx = np.asarray(idx, dtype=np.intp)
    feats = p.dataset.features[idx]
    labs = p.dataset.labels[idx]
    z = labs * (feats @ x)
    coef = _loss_slopes(p.loss, z) * labs
    grad = feats.T @ coef / idx.shape[0]
    if p.ridge:
        grad = grad + p.ridge * x
    return grad


def full_gradient(p: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Exact gradient of f at x, reduced in index order 0..n-1."""
    return batch_mean_grad(p, x, np.arange(p.n))


def smooth_value(p: ProblemInstance, x: np.ndarray) -> float:
    """Value of the smooth part f(x) = mean_i loss_i(x) + ridge/2 ||x||^2."""
    z = p.dataset.labels * (p.dataset.features @ x)
    val = float(np.mean(_loss_values(p.loss, z)))
    if p.ridge:
        val += 0.5 * p.ridge * float(x @ x)
    return val


def penalty_value(g: NonsmoothSpec, y: np.ndarray) -> float:
    """g(y) = weight * ||y||_1."""
    return g.weight * float(np.abs(y).sum())


def objective(p: ProblemInstance, x: np.ndarray) -> float:
    """Composite objective f(x) + g(Ax)."""
    return smooth_value(p, x) + penalty_value(p.g, p.constraint.A @ x)


def prox_g(v: np.ndarray, t: float, g: NonsmoothSpec) -> np.ndarray:
    """Proximal map of t*g at v: coordinate-wise soft thresholding."""
    if not t > 0.0:
        raise ValueError("prox step t must be positive")
    thr = t * g.weight
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def build_difference_matrix(d: int) -> np.ndarray:
    """Square d x d forward-difference matrix: unit diagonal, -1 superdiagonal."""
    if d < 1:
        raise ValueError("d must be at least 1")
    A = np.eye(d)
    idx = np.arange(d - 1)
    A[idx, idx + 1] = -1.0
    return A


def build_fused_logistic(ds: Dataset, weight: float) -> ProblemInstance:
    """Logistic loss with a fused (successive-difference) L1 penalty.

    min (1/n) sum_i log(1 + exp(-b_i a_i^T x)) + weight * ||Ax||_1
    with A the square difference matrix, written as the split problem
    f(x) + g(y) s.t. Ax - y = 0.
    """
    d = ds.d
    A = build_difference_matrix(d)
    cs = ConstraintSpec(A=A, B=-np.eye(d), c=np.zeros(d))
    return ProblemInstance(
        dataset=ds,
        loss="logistic",
        ridge=0.0,
        constraint=cs,
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
    rows = []
    if d > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(ds.features, rowvar=False)
        corr = np.nan_to_num(corr, nan=0.0)  # constant columns carry no edges
        for a in range(d):
            for b in range(a + 1, d):
                if abs(corr[a, b]) >= corr_threshold:
                    row = np.zeros(d)
                    row[a] = 1.0
                    row[b] = -1.0
                    rows.append(row)
    G = np.vstack(rows) if rows else np.zeros((0, d))
    A = np.vstack([G, np.eye(d)])
    m = A.shape[0]
    cs = ConstraintSpec(A=A, B=-np.eye(m), c=np.zeros(m))
    return ProblemInstance(
        dataset=ds,
        loss="sigmoid",
        ridge=l2,
        constraint=cs,
        g=NonsmoothSpec(weight=l1),
    )
