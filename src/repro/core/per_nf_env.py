"""Environment over the per-NF action space (Eq. 7 in full).

:class:`PerNFEnv` is a one-chain :class:`~repro.core.env.NFVEnv` with a
``5 x len(chain)``-dimensional action: every NF's CPU share, frequency,
LLC share, DMA size (first NF only is physical) and batch size are
controlled individually.  It inherits the episode lifecycle and changes
only how an interval is priced: its own per-NF engine on its own clock,
with the bottleneck NF's knobs reported as the chain's.  Used by the
per-NF vs. per-chain granularity experiment.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.env import NFVEnv
from repro.core.sla import SLA
from repro.nfv.chain import ServiceChain
from repro.nfv.engine import TelemetrySample
from repro.nfv.knobs import KnobSettings
from repro.nfv.per_nf import PerNFEngine
from repro.traffic.generators import TrafficGenerator


class PerNFEnv(NFVEnv):
    """Gym-like environment with one knob vector per network function.

    ``chain`` and ``generator`` default as :class:`NFVEnv`'s do; the
    other keywords are :class:`NFVEnv`'s.  The clock runs on across
    episodes, so a time-varying generator continues its trajectory.
    """

    def __init__(
        self,
        sla: SLA,
        *,
        chain: ServiceChain | None = None,
        generator: TrafficGenerator | None = None,
        **kwargs: Any,
    ):
        super().__init__(
            sla,
            chains=None if chain is None else [chain],
            generators=None if generator is None else [generator],
            **kwargs,
        )
        self.engine = PerNFEngine(params=self._engine_params)
        self._t = 0.0

    @property
    def action_dim(self) -> int:
        """5 knobs x number of NFs."""
        return self.knob_space.dim * len(self.chains[0])

    def _price(self, knobs: list[KnobSettings]) -> dict[str, TelemetrySample]:
        """One interval of the chain under one setting per NF."""
        chain, generator = self.chains[0], self.generators[0]
        rate = generator.rate_at(self._t, self.interval_s, self._rng)
        sample = self.engine.step_per_nf(
            chain, knobs, rate, generator.packet_sizes.mean_bytes, self.interval_s
        )
        self._t += self.interval_s
        return {chain.name: sample}

    def _start(self, knobs: KnobSettings | None) -> dict[str, TelemetrySample]:
        """Warm up with ``knobs`` (default: mid-range) on every NF."""
        if knobs is None:
            knobs = self.knob_space.to_settings(np.zeros(self.knob_space.dim))
        return self._price([knobs] * len(self.chains[0]))

    def _interval(self, requested: list[KnobSettings]):
        """Price NF ``i`` at ``requested[i]``; the chain reports the
        bottleneck NF's settings."""
        samples = self._price(requested)
        (sample,) = samples.values()
        rates = [t.service_rate_pps for t in sample.per_nf]
        bottleneck = int(np.argmin(rates))
        info = {
            "per_nf_knobs": requested,
            "bottleneck_nf": sample.per_nf[bottleneck].name,
        }
        return samples, {self.chains[0].name: requested[bottleneck]}, info
