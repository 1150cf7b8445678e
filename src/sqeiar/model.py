"""Pointwise model pieces: reaction terms, Jacobians, and cost sources.

State vectors are ordered (S, Q, E, A, I, R).  All operations accept either
a single state of shape (6,) or a batch of spatial nodes of shape (6, nx)
and broadcast accordingly; they are pure functions with no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_COMPARTMENTS = 6
COMPARTMENTS = ("S", "Q", "E", "A", "I", "R")

# index aliases for readability
_S, _Q, _E, _A, _I, _R = range(6)

BOUND_SLACK = 1e-12  # tolerance for floating-point drift at the box boundary


class ContractError(ValueError):
    """Rejected input: a bad configuration value, or a documented
    precondition or invariant that was violated."""


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological and diffusion constants.

    Defaults are the COVID-19 calibration used throughout the bundled
    scenario (rates in 1/day, diffusion in length^2/day).
    """

    beta: float = 1e-5          # baseline exposure rate
    delta: float = 1e-5         # exposed transmissibility factor
    q: float = 0.9995           # infected contact term uses (1 - q)
    mu: float = 1e-5            # asymptomatic transmissibility factor
    xi: float = 0.001           # reinfection rate
    k: float = 0.54             # exposed progression rate
    z: float = 0.1              # symptomatic fraction of progressing exposed
    eta: float = 0.3            # asymptomatic resolution rate
    p: float = 0.02             # asymptomatic-to-recovered fraction
    f: float = 0.3              # infected removal rate
    alpha: float = 0.995        # survival fraction of removed infected
    diffusion: tuple[float, ...] = (0.001,) * 6

    def __post_init__(self):
        scalars = {
            "beta": self.beta, "delta": self.delta, "q": self.q,
            "mu": self.mu, "xi": self.xi, "k": self.k, "z": self.z,
            "eta": self.eta, "p": self.p, "f": self.f,
        }
        for name, value in scalars.items():
            if not np.isfinite(value) or value < 0:
                raise ContractError(f"model.{name} must be finite and >= 0, got {value}")
        for name in ("q", "z", "p"):
            if not 0 <= scalars[name] <= 1:
                raise ContractError(f"model.{name} must lie in [0, 1], got {scalars[name]}")
        if not 0 < self.alpha < 1:
            raise ContractError(f"model.alpha must lie in (0, 1), got {self.alpha}")
        if len(self.diffusion) != N_COMPARTMENTS:
            raise ContractError("model.diffusion needs six coefficients")
        if any(d <= 0 or not np.isfinite(d) for d in self.diffusion):
            raise ContractError(f"diffusion coefficients must be > 0, got {self.diffusion}")

    @property
    def diffusion_array(self) -> np.ndarray:
        return np.asarray(self.diffusion, dtype=float)


@dataclass(frozen=True)
class QuarantineRegions:
    """Disjoint open subintervals of the spatial domain where quarantine acts."""

    regions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.regions) == 0:
            raise ContractError("at least one quarantine region is required")
        norm = tuple((float(a), float(b)) for a, b in self.regions)
        object.__setattr__(self, "regions", norm)
        for a, b in norm:
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ContractError(f"region ({a}, {b}) is not a valid open interval")
        ordered = sorted(norm)
        for (_, b_prev), (a_next, _) in zip(ordered, ordered[1:]):
            if a_next < b_prev:
                raise ContractError(f"quarantine regions overlap near x={a_next}")

    @property
    def n(self) -> int:
        return len(self.regions)

    @property
    def v_max(self) -> float:
        """Per-point quarantine control bound, 1/n."""
        return 1.0 / self.n

    def check_inside(self, x_min: float, x_max: float) -> None:
        for a, b in self.regions:
            if a < x_min or b > x_max:
                raise ContractError(
                    f"region ({a}, {b}) not contained in domain ({x_min}, {x_max})")

    def mask(self, x: np.ndarray) -> np.ndarray:
        """Weight of each grid node in the union of the regions, as a float:
        1.0 where a < x < b for some region (open comparison), else 0.0.

        The one membership rule: every site that asks which nodes the regions
        hold reads this weight as it is.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for a, b in self.regions:
            out[(x > a) & (x < b)] = 1.0
        return out


@dataclass(frozen=True)
class CostWeights:
    """Weights of the cost functional: state penalties and control gains."""

    rho1: float = 1.0    # susceptible penalty, on the quarantine regions only
    rho3: float = 1.0    # exposed penalty
    rho4: float = 1.0    # asymptomatic penalty
    rho5: float = 1.0    # infected penalty
    sigma1: float = 100.0  # treatment control gain
    sigma2: float = 100.0  # quarantine control gain

    def __post_init__(self):
        for name in ("rho1", "rho3", "rho4", "rho5", "sigma1", "sigma2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ContractError(f"weights.{name} must be finite and > 0, got {value}")


def _as_state_array(state) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape[0] != N_COMPARTMENTS:
        raise ContractError(f"state must have 6 leading components, got shape {state.shape}")
    if not np.all(np.isfinite(state)):
        raise ContractError("state contains non-finite values")
    return state


def check_controls(u, v, v_max: float) -> None:
    """Reject u outside [0, 1] or v outside [0, v_max], up to BOUND_SLACK.

    The tests are written so that NaN fails them: min and max propagate it.
    """
    if not (np.min(u) >= -BOUND_SLACK and np.max(u) <= 1 + BOUND_SLACK):
        raise ContractError("treatment control u outside [0, 1]")
    if not (np.min(v) >= -BOUND_SLACK and np.max(v) <= v_max + BOUND_SLACK):
        raise ContractError(f"quarantine control v outside [0, {v_max}]")


def _lambda_term(y: np.ndarray, params: ModelParams):
    """Force of infection: delta*E + (1-q)*I + mu*A."""
    return params.delta * y[_E] + (1.0 - params.q) * y[_I] + params.mu * y[_A]


def _reaction_split(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The reaction terms as a constant 6x6 matrix L and contact weights c.

    reaction_rhs(y) = L @ y + (c @ y) * S * (e_E - e_S)
                      + v * S * (e_Q - e_S) + u * I * (e_R - e_I),
    where c @ y is the force of infection Lambda; L holds the linear part
    beta * S of the exposure.
    """
    p = params
    L = np.zeros((N_COMPARTMENTS, N_COMPARTMENTS))
    L[_S, _S] = -p.beta
    L[_E, _S] = p.beta
    L[_S, _R] = p.xi
    L[_E, _E] = -p.k
    L[_A, _E] = (1.0 - p.z) * p.k
    L[_A, _A] = -p.eta
    L[_I, _E] = p.z * p.k
    L[_I, _A] = (1.0 - p.p) * p.eta
    L[_I, _I] = -p.f
    L[_R, _A] = p.p * p.eta
    L[_R, _I] = p.alpha * p.f
    L[_R, _R] = -p.xi
    contact = np.zeros(N_COMPARTMENTS)
    contact[[_E, _A, _I]] = p.delta, p.mu, 1.0 - p.q
    return L, contact


def reaction_rhs(state, u, v_eff, params: ModelParams, v_max: float = 1.0) -> np.ndarray:
    """Non-diffusive right-hand sides of the six compartment equations.

    ``v_eff`` is the quarantine control already multiplied by the region
    indicator at the evaluation point(s).  The six components sum to
    (alpha - 1) * f * I exactly.
    """
    y = _as_state_array(state)
    check_controls(u, v_eff, v_max)
    exposure = (params.beta + _lambda_term(y, params)) * y[_S]
    out = np.empty_like(y)
    out[_S] = -exposure + params.xi * y[_R] - v_eff * y[_S]
    out[_Q] = v_eff * y[_S]
    out[_E] = -params.k * y[_E] + exposure
    out[_A] = -params.eta * y[_A] + (1.0 - params.z) * params.k * y[_E]
    out[_I] = (params.z * params.k * y[_E]
               + (1.0 - params.p) * params.eta * y[_A]
               - (params.f + u) * y[_I])
    out[_R] = (-params.xi * y[_R] + params.alpha * params.f * y[_I]
               + u * y[_I] + params.p * params.eta * y[_A])
    return out


def state_jacobian(state, u, v_eff, params: ModelParams, v_max: float = 1.0) -> np.ndarray:
    """Jacobian of reaction_rhs w.r.t. the state, rows/cols ordered (S,Q,E,A,I,R).

    For a batched state of shape (6, nx) the result has shape (nx, 6, 6).
    """
    y = _as_state_array(state)
    check_controls(u, v_eff, v_max)
    batch = y.shape[1:]
    H = np.zeros(batch + (6, 6), dtype=float)
    m_star = params.beta + _lambda_term(y, params)
    s = y[_S]
    one = np.ones(batch, dtype=float)
    H[..., _S, _S] = -m_star - v_eff
    H[..., _S, _E] = -params.delta * s
    H[..., _S, _A] = -params.mu * s
    H[..., _S, _I] = -(1.0 - params.q) * s
    H[..., _S, _R] = params.xi * one
    H[..., _Q, _S] = v_eff * one
    H[..., _E, _S] = m_star
    H[..., _E, _E] = -params.k + params.delta * s
    H[..., _E, _A] = params.mu * s
    H[..., _E, _I] = (1.0 - params.q) * s
    H[..., _A, _E] = (1.0 - params.z) * params.k * one
    H[..., _A, _A] = -params.eta * one
    H[..., _I, _E] = params.z * params.k * one
    H[..., _I, _A] = (1.0 - params.p) * params.eta * one
    H[..., _I, _I] = (-params.f - u) * one
    H[..., _R, _A] = params.p * params.eta * one
    H[..., _R, _I] = (params.alpha * params.f + u) * one
    H[..., _R, _R] = -params.xi * one
    return H


def rho_source(grid, regions: QuarantineRegions, weights: CostWeights) -> np.ndarray:
    """Cost-gradient source on the nodes of ``grid`` (a ``pde.Grid``), shape (6, nx).

    Component 1 carries rho1 on the quarantine regions only; components
    3, 4, 5 carry rho3, rho4, rho5 everywhere; components 2 and 6 vanish.
    """
    out = np.zeros((N_COMPARTMENTS, grid.nx))
    out[_S] = weights.rho1 * regions.mask(grid.x)
    out[_E] = weights.rho3
    out[_A] = weights.rho4
    out[_I] = weights.rho5
    return out
