"""Environment over the per-NF action space (Eq. 7 in full).

:class:`PerNFEnv` mirrors a one-chain :class:`~repro.core.env.NFVEnv`
but exposes a ``5 x len(chain)``-dimensional action: every NF's CPU
share, frequency, LLC share, DMA size (first NF only is physical) and
batch size are controlled individually.  It steps its own per-NF engine
and reports the same :class:`~repro.core.env.StepResult`, with the
bottleneck NF's knobs as the chain's.  Used by the per-NF vs. per-chain
granularity experiment.
"""

from __future__ import annotations

import numpy as np

from repro.core.env import StepResult
from repro.core.knobs import KnobSpace
from repro.core.sla import SLA
from repro.core.state import StateEncoder
from repro.nfv.chain import ServiceChain, default_chain
from repro.nfv.engine import EngineParams, PollingMode
from repro.nfv.per_nf import PerNFEngine, PerNFKnobVector
from repro.traffic.generators import ConstantRateGenerator, TrafficGenerator
from repro.utils.rng import RngLike, as_generator


class PerNFEnv:
    """Gym-like environment with one knob vector per network function."""

    def __init__(
        self,
        sla: SLA,
        *,
        chain: ServiceChain | None = None,
        generator: TrafficGenerator | None = None,
        episode_len: int = 32,
        interval_s: float = 1.0,
        knob_space: KnobSpace | None = None,
        encoder: StateEncoder | None = None,
        engine_params: EngineParams | None = None,
        polling: PollingMode = PollingMode.ADAPTIVE,
        rng: RngLike = None,
    ):
        if episode_len < 1:
            raise ValueError("episode length must be >= 1")
        self.sla = sla
        self.chain = chain or default_chain()
        self.generator = generator or ConstantRateGenerator.line_rate()
        self.episode_len = episode_len
        self.interval_s = interval_s
        self.knob_space = knob_space or KnobSpace()
        self.encoder = encoder or StateEncoder()
        self.vector = PerNFKnobVector(len(self.chain))
        self.engine = PerNFEngine(params=engine_params, polling=polling)
        self._rng = as_generator(rng)
        self._t = 0.0
        self._step_count = 0
        self._started = False

    @property
    def state_dim(self) -> int:
        """Observation dimensionality (same Eq. 8 state)."""
        return self.encoder.dim

    @property
    def action_dim(self) -> int:
        """5 knobs x number of NFs."""
        return self.vector.dim

    def reset(self) -> np.ndarray:
        """Fresh episode; the first observation uses mid-range knobs."""
        self._step_count = 0
        self._started = True
        mid = np.zeros(self.action_dim)
        knobs = self.vector.split(mid, self.knob_space)
        rate = self.generator.rate_at(self._t, self.interval_s, self._rng)
        pkt = self.generator.packet_sizes.mean_bytes
        sample = self.engine.step_per_nf(self.chain, knobs, rate, pkt, self.interval_s)
        self._t += self.interval_s
        return self.encoder.encode(sample)

    def step(self, action: np.ndarray) -> StepResult:
        """Apply a flat per-NF action for one control interval."""
        if not self._started:
            raise RuntimeError("call reset() before step()")
        action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        knobs = self.vector.split(action, self.knob_space)
        rate = self.generator.rate_at(self._t, self.interval_s, self._rng)
        pkt = self.generator.packet_sizes.mean_bytes
        sample = self.engine.step_per_nf(self.chain, knobs, rate, pkt, self.interval_s)
        self._t += self.interval_s
        self._step_count += 1
        done = self._step_count >= self.episode_len
        # Report the bottleneck NF's knobs as the representative setting.
        rates = [t.service_rate_pps for t in sample.per_nf]
        bottleneck = int(np.argmin(rates))
        return StepResult(
            observation=self.encoder.encode(sample),
            reward=self.sla.reward(sample),
            done=done,
            sample=sample,
            samples={self.chain.name: sample},
            per_chain_knobs={self.chain.name: knobs[bottleneck]},
            info={
                "sla_satisfied": self.sla.satisfied(sample),
                "step": self._step_count,
                "per_nf_knobs": knobs,
                "bottleneck_nf": sample.per_nf[bottleneck].name,
            },
        )

    def run_policy_episode(self, policy, *, explore: bool = False) -> list[StepResult]:
        """Roll one full episode under ``policy.act``."""
        obs = self.reset()
        out: list[StepResult] = []
        done = False
        while not done:
            result = self.step(policy.act(obs, explore=explore))
            out.append(result)
            obs = result.observation
            done = result.done
        return out
