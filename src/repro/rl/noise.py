"""Exploration noise processes for DDPG.

DDPG "uses a stochastic behavior policy for search space exploration but
estimates a deterministic target policy" — the stochasticity comes from
additive action noise.  The original DDPG paper uses an
Ornstein-Uhlenbeck process (temporally correlated, suited to control
problems); later practice showed plain Gaussian noise works as well.
Both are provided, plus a decay schedule so exploration anneals over
training.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, as_generator


class OUNoise:
    """Ornstein-Uhlenbeck process: dx = theta*(mu - x)*dt + sigma*dW."""

    def __init__(
        self,
        dim: int,
        *,
        mu: float = 0.0,
        theta: float = 0.15,
        sigma: float = 0.2,
        dt: float = 1.0,
        rng: RngLike = None,
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if theta < 0 or sigma < 0 or not dt > 0:
            raise ValueError("theta/sigma must be >= 0 and dt > 0")
        self.dim = dim
        self.mu = mu
        self.theta = theta
        self.sigma = sigma
        self.dt = dt
        self._rng = as_generator(rng)
        self._state = np.full(dim, mu, dtype=np.float64)

    def reset(self) -> None:
        """Return the process to its mean (episode boundary)."""
        self._state[:] = self.mu

    def sample(self) -> np.ndarray:
        """Advance the process one step and return its state."""
        dw = self._rng.normal(0.0, np.sqrt(self.dt), size=self.dim)
        self._state += self.theta * (self.mu - self._state) * self.dt + self.sigma * dw
        return self._state.copy()


class GaussianNoise:
    """IID Gaussian action noise with optional exponential decay."""

    def __init__(
        self,
        dim: int,
        *,
        sigma: float = 0.2,
        sigma_min: float = 0.02,
        decay: float = 1.0,
        rng: RngLike = None,
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if sigma < 0 or sigma_min < 0:
            raise ValueError("sigma values must be non-negative")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.dim = dim
        self.sigma = sigma
        self.sigma_min = sigma_min
        self.decay = decay
        self._rng = as_generator(rng)

    def reset(self) -> None:
        """No-op (kept for interface parity with OUNoise)."""

    def sample(self) -> np.ndarray:
        """Draw one noise vector and decay sigma toward sigma_min."""
        out = self._rng.normal(0.0, max(self.sigma, 1e-12), size=self.dim)
        self.sigma = max(self.sigma_min, self.sigma * self.decay)
        return out
