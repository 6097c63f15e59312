"""Exploration noise for DDPG.

DDPG "uses a stochastic behavior policy for search space exploration but
estimates a deterministic target policy" — the stochasticity comes from
additive action noise.  As in the original DDPG paper, it is an
Ornstein-Uhlenbeck process (temporally correlated, suited to control
problems).
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
