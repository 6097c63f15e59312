"""The reinforcement-learning environment wrapping the NFV platform.

One :class:`NFVEnv` instance owns one node hosting one or more chains
(the per-actor environment of the Ape-X architecture).  The paper's
formulation spans every chain a node hosts: the state space is
``X = {X_1, ..., X_n}`` and the action space ``A = {A_1, ..., A_n}``
(§4.3.1), so the observation concatenates each chain's Eq. 8 state and
the action each chain's five knobs.  Each ``step`` is one control
interval: every chain's action slice becomes knob settings, the platform
runs the interval, and the SLA turns the Eq. 1/2 aggregate telemetry
into a reward.  The node applies CAT partitioning across the chains'
LLC requests and the engine's contention model couples them, so a joint
agent must *learn* the Fig. 1 lesson (LLC proportional to the flows).
One chain is the n = 1 case: its aggregate is its own sample.  The
interface is gym-like (``reset``/``step``) but dependency free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.core.knobs import KnobSpace
from repro.core.sla import SLA
from repro.core.state import StateEncoder
from repro.nfv.chain import ServiceChain, default_chain
from repro.nfv.controller import OnvmController
from repro.nfv.engine import (
    EngineParams,
    PollingMode,
    TelemetrySample,
    aggregate_samples,
)
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.traffic.generators import ConstantRateGenerator, TrafficGenerator
from repro.utils.rng import RngLike, as_generator


@dataclass
class StepResult:
    """Outcome of one environment step.

    ``sample`` is the Eq. 1/2 aggregate over the chains (a one-chain
    step's own sample); ``samples`` and ``per_chain_knobs`` hold each
    chain's telemetry and applied settings by name.
    """

    observation: np.ndarray
    reward: float
    done: bool
    sample: TelemetrySample
    samples: dict[str, TelemetrySample]
    per_chain_knobs: dict[str, KnobSettings]
    info: dict[str, Any] = field(default_factory=dict)

    @cached_property
    def knobs(self) -> KnobSettings:
        """Mean settings across chains (for reporting), computed on first
        read; the batch size rounds to an integer."""
        rows = [k.as_array() for k in self.per_chain_knobs.values()]
        return KnobSettings.from_array(np.mean(rows, axis=0))


class NFVEnv:
    """Gym-like environment: actions are knob vectors, rewards come from an SLA.

    ``chains`` default to the paper's default chain and ``generators``
    to line-rate traffic, one per chain.  The reward is the SLA applied
    to the aggregate telemetry (summed throughput/energy, worst-chain
    utilization), matching Eq. 1/2's sums over flows
    ``psi_T = sum_i T_{f_i}`` and ``psi_E = sum_i E_{f_i}``.
    """

    def __init__(
        self,
        sla: SLA,
        *,
        chains: Sequence[ServiceChain] | None = None,
        generators: Sequence[TrafficGenerator] | None = None,
        episode_len: int = 32,
        interval_s: float = 1.0,
        knob_space: KnobSpace | None = None,
        encoder: StateEncoder | None = None,
        engine_params: EngineParams | None = None,
        polling: PollingMode = PollingMode.ADAPTIVE,
        rng: RngLike = None,
    ):
        self.chains = [default_chain()] if chains is None else list(chains)
        self.generators = (
            [ConstantRateGenerator.line_rate() for _ in self.chains]
            if generators is None
            else list(generators)
        )
        if not self.chains:
            raise ValueError("need at least one chain")
        if len(self.generators) != len(self.chains):
            raise ValueError("need one generator per chain")
        if len({c.name for c in self.chains}) != len(self.chains):
            raise ValueError("chain names must be unique")
        if episode_len < 1:
            raise ValueError("episode length must be >= 1")
        self.sla = sla
        self.episode_len = episode_len
        self.interval_s = interval_s
        self.knob_space = knob_space or KnobSpace()
        self.encoder = encoder or StateEncoder()
        self._engine_params = engine_params
        self._polling = polling
        self._rng = as_generator(rng)
        self.controller: OnvmController | None = None
        self._step_count = 0

    # -- spaces ---------------------------------------------------------------

    @property
    def n_chains(self) -> int:
        """Number of jointly controlled chains."""
        return len(self.chains)

    @property
    def state_dim(self) -> int:
        """Concatenated Eq. 8 states: 4 per chain."""
        return self.encoder.dim * self.n_chains

    @property
    def action_dim(self) -> int:
        """Concatenated knob vectors: 5 per chain."""
        return self.knob_space.dim * self.n_chains

    # -- lifecycle --------------------------------------------------------------

    def reset(self, *, knobs: KnobSettings | None = None) -> np.ndarray:
        """Start a fresh episode on a pristine platform; returns the initial obs.

        ``knobs`` sets every chain's initial settings (default: the
        Baseline).  The node and controller are built once and recycled
        through their cheap ``reset()`` on later episodes — cache/ring/
        meter state never leaks across episodes, but engines and
        hardware models are not reallocated.  The traffic generators
        continue their own trajectories.
        """
        if self.controller is None:
            node = Node(params=self._engine_params, polling=self._polling)
            self.controller = OnvmController(
                node, interval_s=self.interval_s, rng=self._rng
            )
        else:
            self.controller.reset()
        for chain, generator in zip(self.chains, self.generators):
            self.controller.add_chain(chain, generator, knobs)
        self._step_count = 0
        # Run one warm-up interval under the initial knobs so the first
        # observation reflects real telemetry rather than zeros.
        return self.encoder.encode_all(self.controller.run_interval().values())

    def step(self, action: np.ndarray) -> StepResult:
        """Apply a normalized action for one control interval.

        Chain ``i`` takes the action slice ``[5 i, 5 i + 5)``; every
        slice is mapped to settings before any knob is applied.
        """
        if self.controller is None:
            raise RuntimeError("call reset() before step()")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.action_dim,):
            raise ValueError(
                f"expected action shape ({self.action_dim},), got {action.shape}"
            )
        k = self.knob_space.dim
        requested = [
            self.knob_space.to_settings(action[i * k : (i + 1) * k])
            for i in range(self.n_chains)
        ]
        knobs = {
            chain.name: self.controller.set_knobs(chain.name, settings)
            for chain, settings in zip(self.chains, requested)
        }
        samples = self.controller.run_interval()
        sample = aggregate_samples(samples.values())
        self._step_count += 1
        return StepResult(
            observation=self.encoder.encode_all(samples.values()),
            reward=self.sla.reward(sample),
            done=self._step_count >= self.episode_len,
            sample=sample,
            samples=samples,
            per_chain_knobs=knobs,
            info={
                "sla_satisfied": self.sla.satisfied(sample),
                "step": self._step_count,
            },
        )

    def run_policy_episode(
        self,
        policy,
        *,
        explore: bool = False,
        knobs0: KnobSettings | None = None,
    ) -> list[StepResult]:
        """Roll one full episode under ``policy.act(obs, explore=...)``."""
        obs = self.reset(knobs=knobs0)
        out: list[StepResult] = []
        done = False
        while not done:
            action = policy.act(obs, explore=explore)
            result = self.step(action)
            out.append(result)
            obs = result.observation
            done = result.done
        return out
