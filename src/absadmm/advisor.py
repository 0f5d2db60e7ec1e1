"""Theory-driven parameter estimates: smoothness constants, spectral bounds,
the (beta, eta) feasibility region of the single-loop method, and complete
parameter presets for the two variance-reduced methods."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import AdmmParams, make_admm_params
from .problems import ProblemInstance

__all__ = [
    "SadmmFeasibility",
    "VrPreset",
    "AdvisorReport",
    "estimate_L",
    "metric_eigenvalue_range",
    "sadmm_feasibility",
    "feasibility_at",
    "svrg_preset",
    "spider_preset",
    "advise",
]

# max |s''(z)| for the sigmoid loss 1/(1+e^z), attained at s = 1/2 +- 1/(2*sqrt(3))
_SIGMOID_CURV = 1.0 / (6.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class SadmmFeasibility:
    """Feasibility of a (beta, eta, c_tau) triple for the single-loop method.

    rho is the per-step descent coefficient; the triple is declared feasible
    when beta clears beta_plus and eta clears eta_plus, which implies rho > 0.
    """

    theta: float
    delta_eta: float
    beta_plus: float
    eta_plus: Optional[float]
    rho: float
    feasible: bool


@dataclass(frozen=True)
class VrPreset:
    """A complete parameter set for one variance-reduced method."""

    kind: str  # "svrg" or "spider"
    b: int
    window: int  # epoch length T (svrg) or refresh period q (spider)
    eta: float
    beta: float
    c_tau: float
    c_eps: float
    r: float
    zeta_min: float
    zeta_max: float
    bounds_ok: bool


@dataclass(frozen=True)
class AdvisorReport:
    """Problem constants plus feasibility and presets, as printed by the CLI."""

    n: int
    d: int
    L: float
    varsigma: float
    opnorm: float
    norm_A: float
    norm_B: float
    sigma2: Optional[float]
    beta: Optional[float]
    eta: Optional[float]
    c_tau: Optional[float]
    feasibility: Optional[SadmmFeasibility]
    svrg: VrPreset
    spider: VrPreset


def estimate_L(p: ProblemInstance) -> float:
    """Smoothness constant of f: curvature bound * max row norm^2 + ridge."""
    row_sq = float(np.max(np.einsum("ij,ij->i", p.dataset.features, p.dataset.features)))
    curv = 0.25 if p.loss == "logistic" else _SIGMOID_CURV
    return curv * row_sq + p.ridge


def metric_eigenvalue_range(beta: float, eta: float, r: float, varsigma: float, opnorm: float):
    """(zeta_min, zeta_max) of G = r*I - beta*eta*A^T A."""
    return r - beta * eta * opnorm, r - beta * eta * varsigma


def sadmm_feasibility(
    L: float,
    varsigma: float,
    zeta_min: float,
    zeta_max: float,
    c_tau: float,
    beta: float,
    eta: float,
) -> SadmmFeasibility:
    """Evaluate the convergence constants of the single-loop method.

    rho > 0 is the operative condition; it holds whenever beta exceeds the
    quadratic root beta_plus and eta exceeds the induced threshold eta_plus.
    """
    bs = beta * varsigma
    theta = 1.0 + L + 1.0 / c_tau + 20.0 / (c_tau * bs) + 10.0 * L * L / bs - bs
    delta_eta = 4.0 * zeta_min**2 - (80.0 * zeta_max**2 / bs) * theta
    lin = 1.0 + c_tau + c_tau * L
    beta_plus = (lin + math.sqrt(lin * lin + 40.0 * c_tau * (2.0 + c_tau * L * L))) / (
        2.0 * c_tau * varsigma
    )
    eta_plus = None
    if delta_eta > 0.0:
        eta_plus = 40.0 * zeta_max**2 / ((2.0 * zeta_min + math.sqrt(delta_eta)) * bs)
    rho = (
        zeta_min / eta
        + bs / 2.0
        - (L + 1.0) / 2.0
        - 10.0 * zeta_max**2 / (bs * eta * eta)
        - 1.0 / (2.0 * c_tau)
        - 10.0 / (c_tau * bs)
        - 5.0 * L * L / bs
    )
    feasible = beta > beta_plus and eta_plus is not None and eta > eta_plus
    return SadmmFeasibility(
        theta=theta,
        delta_eta=delta_eta,
        beta_plus=beta_plus,
        eta_plus=eta_plus,
        rho=rho,
        feasible=feasible,
    )


def feasibility_at(params: AdmmParams, c_tau: float, L: float, varsigma: float, opnorm: float) -> SadmmFeasibility:
    """``sadmm_feasibility`` at the beta, eta and metric constant r of ``params``."""
    zeta_min, zeta_max = metric_eigenvalue_range(params.beta, params.eta, params.r, varsigma, opnorm)
    return sadmm_feasibility(L, varsigma, zeta_min, zeta_max, c_tau, params.beta, params.eta)


def _ceil_root(n: int, num: int, den: int) -> int:
    """Smallest integer t with t**den >= n**num, i.e. ceil(n**(num/den))."""
    target = n**num
    t = round(target ** (1.0 / den))
    while t**den > target:
        t -= 1
    while t**den < target:
        t += 1
    return max(t, 1)


def _sweep_beta(eta, varsigma, opnorm, tail_builder):
    """Resolve the circular beta bound (zeta_max depends on beta through the
    default metric constant) by one fixed-point sweep from the zeta-free
    bounds, then verify."""
    base = max(20.0 / varsigma, math.sqrt(10.0 / (3.0 * varsigma)))

    def bound(beta):
        r = beta * eta * opnorm + 1.0
        zeta_max = r - beta * eta * varsigma
        return max(base, *tail_builder(zeta_max / eta)), zeta_max, r

    swept, _, _ = bound(base)
    needed, zeta_max, r = bound(swept)
    return swept, zeta_max, r, swept >= needed * (1.0 - 1e-12)


def svrg_preset(n: int, L: float, norm_A: float, norm_B: float, varsigma: float, opnorm: float) -> VrPreset:
    """Theory preset for the snapshot-anchored method."""
    T = _ceil_root(n, 1, 3)
    b = _ceil_root(n, 2, 3)
    zeta_min = 1.0
    eta = 2.0 * zeta_min / (5.0 * L * L + L + 2.0)
    prod = norm_B * norm_A

    def tails(zmax_over_eta):
        return (
            math.sqrt(3.0 * (L * L + zmax_over_eta**2) / prod),
            math.sqrt(10.0 * (2.0 + 9.0 * L * L + 2.0 * zmax_over_eta**2)) / varsigma,
        )

    beta, zeta_max, r, ok = _sweep_beta(eta, varsigma, opnorm, tails)
    c = 9.0 + (12.0 / (L * L)) * (3.0 + beta * beta * prod)
    return VrPreset(
        kind="svrg", b=b, window=T, eta=eta, beta=beta, c_tau=c, c_eps=c,
        r=r, zeta_min=zeta_min, zeta_max=zeta_max, bounds_ok=ok,
    )


def spider_preset(
    n: int, L: float, norm_A: float, norm_B: float, varsigma: float, opnorm: float, c_d: float = 1.0
) -> VrPreset:
    """Theory preset for the recursive-gradient method."""
    s = math.isqrt(n)
    q = s if s * s == n else s + 1
    b = q
    if not 1.0 <= c_d <= q:
        raise ValueError(f"c_d must lie in [1, {q}]")
    zeta_min = 1.0
    # eta must sit strictly below 2*zeta_min/(L^2+L+4); take the midpoint
    eta = zeta_min / (L * L + L + 4.0)
    prod = norm_B * norm_A

    def tails(zmax_over_eta):
        return (
            math.sqrt(3.0 * (L * L + zmax_over_eta**2) / prod),
            math.sqrt(20.0 * (1.0 + 2.0 * L * L + zmax_over_eta**2)) / varsigma,
        )

    beta, zeta_max, r, ok = _sweep_beta(eta, varsigma, opnorm, tails)
    c = (9.0 * (1.0 + c_d) / 2.0) * (4.0 + beta * beta * prod)
    return VrPreset(
        kind="spider", b=b, window=q, eta=eta, beta=beta, c_tau=c, c_eps=c,
        r=r, zeta_min=zeta_min, zeta_max=zeta_max, bounds_ok=ok,
    )


def advise(
    p: ProblemInstance,
    beta: Optional[float] = None,
    eta: Optional[float] = None,
    c_tau: float = 1.0,
    sigma2: Optional[float] = None,
    c_d: float = 1.0,
) -> AdvisorReport:
    """Assemble the full report for a problem instance.

    Feasibility of (beta, eta, c_tau) is evaluated only when both beta and
    eta are supplied, at the default metric constant r of ``make_admm_params``;
    the presets are always computed.
    """
    L = estimate_L(p)
    varsigma, opnorm = p.constraint.spectrum
    norm_A = math.sqrt(opnorm)
    norm_B = 1.0  # B = -I
    feas = None
    if beta is not None and eta is not None:
        params = make_admm_params(p.constraint, beta, eta)
        feas = feasibility_at(params, c_tau, L, varsigma, opnorm)
    return AdvisorReport(
        n=p.n,
        d=p.dataset.d,
        L=L,
        varsigma=varsigma,
        opnorm=opnorm,
        norm_A=norm_A,
        norm_B=norm_B,
        sigma2=sigma2,
        beta=beta,
        eta=eta,
        c_tau=c_tau if beta is not None and eta is not None else None,
        feasibility=feas,
        svrg=svrg_preset(p.n, L, norm_A, norm_B, varsigma, opnorm),
        spider=spider_preset(p.n, L, norm_A, norm_B, varsigma, opnorm, c_d=c_d),
    )
