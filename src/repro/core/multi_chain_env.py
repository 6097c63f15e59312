"""Multi-chain environment: one agent schedules all chains on a node.

The paper's formulation spans every chain: the state space is
``X = {X_1, ..., X_n}`` and the action space ``A = {A_1, ..., A_n}``
(§4.3.1) — "for n number of flows, the action space becomes O(n x k^5)".
:class:`MultiChainEnv` realizes that: a node hosts several chains with
separate traffic aggregates; the observation concatenates each chain's
Eq. 8 state and the action concatenates each chain's knob vector.  The
node applies CAT partitioning across the chains' LLC requests and the
engine's contention model couples them — so the agent must *learn* the
Fig. 1 lesson (allocate LLC proportional to the flows) rather than
having it hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.knobs import KnobSpace
from repro.core.sla import SLA
from repro.core.state import StateEncoder
from repro.nfv.chain import ServiceChain
from repro.nfv.controller import OnvmController
from repro.nfv.engine import (
    EngineParams,
    PollingMode,
    TelemetrySample,
    aggregate_samples,
)
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.traffic.generators import TrafficGenerator
from repro.utils.rng import RngLike, as_generator


@dataclass
class MultiChainStep:
    """Outcome of one multi-chain step.

    Exposes the single-chain :class:`~repro.core.env.StepResult` interface
    (``sample``, ``knobs``) so the shared training/evaluation protocols
    work unchanged: ``sample`` is the Eq. 1/2 aggregate and ``knobs`` the
    across-chain mean settings.
    """

    observation: np.ndarray
    reward: float
    done: bool
    samples: dict[str, TelemetrySample]
    per_chain_knobs: dict[str, KnobSettings]
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def sample(self) -> TelemetrySample:
        """Aggregate telemetry over all chains."""
        return self.info["aggregate"]

    @property
    def knobs(self) -> KnobSettings:
        """Mean knob settings across chains (for reporting)."""
        arrays = np.stack([k.as_array() for k in self.per_chain_knobs.values()])
        return KnobSettings.from_array(arrays.mean(axis=0))


class MultiChainEnv:
    """Joint control of several chains sharing one node.

    The reward is the SLA applied to the *aggregate* telemetry (summed
    throughput/energy, worst-chain utilization), matching Eq. 1/2's sums
    over flows ``psi_T = sum_i T_{f_i}`` and ``psi_E = sum_i E_{f_i}``.
    """

    def __init__(
        self,
        sla: SLA,
        chains: Sequence[ServiceChain],
        generators: Sequence[TrafficGenerator],
        *,
        episode_len: int = 32,
        interval_s: float = 1.0,
        knob_space: KnobSpace | None = None,
        encoder: StateEncoder | None = None,
        engine_params: EngineParams | None = None,
        polling: PollingMode = PollingMode.ADAPTIVE,
        rng: RngLike = None,
    ):
        if not chains:
            raise ValueError("need at least one chain")
        if len(chains) != len(generators):
            raise ValueError("need one generator per chain")
        if len({c.name for c in chains}) != len(chains):
            raise ValueError("chain names must be unique")
        if episode_len < 1:
            raise ValueError("episode length must be >= 1")
        self.sla = sla
        self.chains = list(chains)
        self.generators = list(generators)
        self.episode_len = episode_len
        self.interval_s = interval_s
        self.knob_space = knob_space or KnobSpace()
        self.encoder = encoder or StateEncoder()
        self._engine_params = engine_params
        self._polling = polling
        self._rng = as_generator(rng)
        self.controller: OnvmController | None = None
        self._step_count = 0

    @property
    def n_chains(self) -> int:
        """Number of jointly controlled chains."""
        return len(self.chains)

    @property
    def state_dim(self) -> int:
        """Concatenated Eq. 8 states: 4 x n."""
        return self.encoder.dim * self.n_chains

    @property
    def action_dim(self) -> int:
        """Concatenated knob vectors: 5 x n."""
        return self.knob_space.dim * self.n_chains

    def _observe(self) -> np.ndarray:
        assert self.controller is not None
        parts = []
        for chain in self.chains:
            sample = self.controller.node.chains[chain.name].last_sample
            parts.append(self.encoder.encode(sample))
        return np.concatenate(parts)

    def reset(self) -> np.ndarray:
        """Fresh node + controller; one warm-up interval."""
        node = Node(params=self._engine_params, polling=self._polling)
        self.controller = OnvmController(node, interval_s=self.interval_s, rng=self._rng)
        for chain, gen in zip(self.chains, self.generators):
            self.controller.add_chain(chain, gen, KnobSettings())
        self._step_count = 0
        self.controller.run_interval()
        return self._observe()

    def _aggregate(self, samples: dict[str, TelemetrySample]) -> TelemetrySample:
        """Fold per-chain telemetry into one Eq. 1/2-style aggregate.

        Delegates to :func:`repro.nfv.engine.aggregate_samples`, the
        one Eq. 1/2 fold every stepping path shares.
        """
        return aggregate_samples([samples[c.name] for c in self.chains])

    def step(self, action: np.ndarray) -> MultiChainStep:
        """Apply the joint action and run one interval.

        All chains' knob slices are handed to the controller together,
        so the node applies them and evaluates every chain in a single
        :meth:`~repro.nfv.node.Node.step_all` pass.
        """
        if self.controller is None:
            raise RuntimeError("call reset() before step()")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.action_dim,):
            raise ValueError(
                f"expected action shape ({self.action_dim},), got {action.shape}"
            )
        requested: dict[str, KnobSettings] = {}
        k = self.knob_space.dim
        for i, chain in enumerate(self.chains):
            requested[chain.name] = self.knob_space.to_settings(
                action[i * k : (i + 1) * k]
            )
        samples = self.controller.run_interval(knobs=requested)
        node = self.controller.node
        knobs = {name: node.chains[name].knobs for name in requested}
        agg = self._aggregate(samples)
        self._step_count += 1
        done = self._step_count >= self.episode_len
        return MultiChainStep(
            observation=self._observe(),
            reward=self.sla.reward(agg),
            done=done,
            samples=samples,
            per_chain_knobs=knobs,
            info={
                "sla_satisfied": self.sla.satisfied(agg),
                "aggregate": agg,
                "step": self._step_count,
            },
        )

    def run_policy_episode(self, policy, *, explore: bool = False) -> list[MultiChainStep]:
        """Roll one full episode under ``policy.act``."""
        obs = self.reset()
        out: list[MultiChainStep] = []
        done = False
        while not done:
            result = self.step(policy.act(obs, explore=explore))
            out.append(result)
            obs = result.observation
            done = result.done
        return out
