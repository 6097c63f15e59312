"""CPU model: cores, DVFS frequency ladder, governors, and P/C-states.

GreenNFV controls CPU frequency through the Linux ``userspace`` cpufreq
governor (via cpufrequtils) and CPU time through cgroups shares.  The
testbed CPU is an Intel Xeon E5-2620 v4: 2.1 GHz base, DVFS down to
1.2 GHz, dual socket, 16 cores total.  This module models the control
surface those tools expose:

* a **discrete frequency ladder** (``available_frequencies`` in sysfs) —
  requests are clamped to the nearest available step, exactly what the
  userspace governor does;
* **governors** — ``performance`` pins max frequency (the paper's
  Baseline), ``powersave`` pins min, ``userspace`` honours the requested
  value, ``ondemand``/``conservative`` move frequency with utilization;
* **P-states** — the EE-Pstate baseline (Iqbal & John 2012) thinks in
  P-state indices rather than raw frequencies; P0 is the highest
  frequency;
* **C-states** — when an NF has no packets, GreenNFV "puts the NF to
  sleep until a new packet arrives"; idle cores drop into a C-state with
  greatly reduced residual power, which :mod:`repro.hw.power` consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Governor(enum.Enum):
    """Linux cpufreq power governors exposed by cpufrequtils."""

    PERFORMANCE = "performance"
    POWERSAVE = "powersave"
    USERSPACE = "userspace"
    ONDEMAND = "ondemand"
    CONSERVATIVE = "conservative"


#: Default E5-2620 v4 DVFS ladder (GHz), 100 MHz steps like intel_pstate
#: exposes.  The paper sweeps 1.2 - 2.1 GHz (Fig. 2's x-axis).
XEON_E5_2620V4_FREQS_GHZ: tuple[float, ...] = tuple(
    round(f, 1) for f in np.arange(1.2, 2.1 + 1e-9, 0.1)
)


@dataclass(frozen=True)
class CStateSpec:
    """One idle state: residency power fraction relative to active idle.

    ``power_fraction`` scales the core's share of idle power; ``wake_us``
    is the exit latency, charged when a sleeping NF sees a new packet.
    """

    name: str
    power_fraction: float
    wake_us: float


#: A simplified Broadwell-EP idle ladder.  C1 halts the clock, C6 power
#: gates the core.  Fractions are relative to a core's active-idle power.
DEFAULT_C_STATES: tuple[CStateSpec, ...] = (
    CStateSpec("C0", 1.00, 0.0),
    CStateSpec("C1", 0.45, 2.0),
    CStateSpec("C3", 0.25, 50.0),
    CStateSpec("C6", 0.08, 133.0),
)


@dataclass
class CpuSpec:
    """Static description of one socketed CPU package.

    Defaults model the Intel Xeon E5-2620 v4 of the paper's testbed.
    """

    model: str = "Intel Xeon E5-2620 v4"
    cores: int = 8
    sockets: int = 2
    base_freq_ghz: float = 2.1
    min_freq_ghz: float = 1.2
    freq_ladder_ghz: tuple[float, ...] = XEON_E5_2620V4_FREQS_GHZ
    c_states: tuple[CStateSpec, ...] = DEFAULT_C_STATES

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.sockets <= 0:
            raise ValueError("cores and sockets must be positive")
        ladder = tuple(sorted(self.freq_ladder_ghz))
        if not ladder:
            raise ValueError("frequency ladder must be non-empty")
        self.freq_ladder_ghz = ladder
        if not np.isclose(ladder[0], self.min_freq_ghz):
            raise ValueError(
                f"ladder min {ladder[0]} != min_freq_ghz {self.min_freq_ghz}"
            )
        if not np.isclose(ladder[-1], self.base_freq_ghz):
            raise ValueError(
                f"ladder max {ladder[-1]} != base_freq_ghz {self.base_freq_ghz}"
            )

    @property
    def total_cores(self) -> int:
        """Cores across all sockets (16 on the testbed nodes)."""
        return self.cores * self.sockets

    @property
    def n_pstates(self) -> int:
        """Number of P-states == number of ladder steps."""
        return len(self.freq_ladder_ghz)

    def clamp_frequency(self, freq_ghz: float) -> float:
        """Snap a requested frequency to the nearest ladder step.

        Mirrors the userspace governor: writing any value to
        ``scaling_setspeed`` selects the closest supported frequency.
        """
        return float(min(self.freq_ladder_ghz, key=lambda f: abs(f - freq_ghz)))

    def pstate_to_freq(self, pstate: int) -> float:
        """P-state index -> frequency.  P0 is the *highest* frequency."""
        if not 0 <= pstate < self.n_pstates:
            raise ValueError(f"pstate {pstate} out of range [0, {self.n_pstates})")
        return self.freq_ladder_ghz[self.n_pstates - 1 - pstate]

    def freq_to_pstate(self, freq_ghz: float) -> int:
        """Frequency -> P-state index of the nearest ladder step."""
        f = self.clamp_frequency(freq_ghz)
        idx = int(np.argmin(np.abs(np.asarray(self.freq_ladder_ghz) - f)))
        return self.n_pstates - 1 - idx

    def step_down(self, freq_ghz: float) -> float:
        """Nearest smaller available frequency (floors at the ladder min).

        This is the primitive the paper's heuristic Algorithm 1 uses
        ("Select nearest smaller core_frequency that is available").
        """
        f = self.clamp_frequency(freq_ghz)
        ladder = self.freq_ladder_ghz
        idx = ladder.index(f)
        return ladder[max(0, idx - 1)]

    def step_up(self, freq_ghz: float) -> float:
        """Nearest larger available frequency (caps at the ladder max)."""
        f = self.clamp_frequency(freq_ghz)
        ladder = self.freq_ladder_ghz
        idx = ladder.index(f)
        return ladder[min(len(ladder) - 1, idx + 1)]


@dataclass
class CoreState:
    """Dynamic state of one logical core."""

    freq_ghz: float
    governor: Governor = Governor.USERSPACE
    c_state: str = "C0"
    utilization: float = 0.0


class CpuFreqController:
    """Userspace-governor style frequency control over a set of cores.

    The ONVM controller in GreenNFV sets per-core frequencies through this
    interface; the ondemand/conservative governors are also modelled so
    that governor choice itself can be an experiment axis.
    """

    #: ondemand ramps to max above this utilization (Linux default 95%,
    #: we use the conventional 80% threshold simplification).
    ONDEMAND_UP_THRESHOLD = 0.80
    #: conservative steps one ladder notch at a time outside this band.
    CONSERVATIVE_BAND = (0.30, 0.70)

    def __init__(self, spec: CpuSpec, governor: Governor = Governor.USERSPACE):
        self.spec = spec
        self.governor = governor
        init = (
            spec.base_freq_ghz
            if governor == Governor.PERFORMANCE
            else spec.min_freq_ghz
            if governor == Governor.POWERSAVE
            else spec.base_freq_ghz
        )
        self._cores = [
            CoreState(freq_ghz=init, governor=governor)
            for _ in range(spec.total_cores)
        ]

    @property
    def cores(self) -> list[CoreState]:
        """Per-core dynamic state (mutated in place by the controller)."""
        return self._cores

    def set_governor(self, governor: Governor) -> None:
        """Switch all cores to a governor, applying its pinned frequency."""
        self.governor = governor
        for core in self._cores:
            core.governor = governor
            if governor == Governor.PERFORMANCE:
                core.freq_ghz = self.spec.base_freq_ghz
            elif governor == Governor.POWERSAVE:
                core.freq_ghz = self.spec.min_freq_ghz

    def set_frequency(self, freq_ghz: float, cores: list[int] | None = None) -> float:
        """Request a frequency on ``cores`` (all if None); returns applied.

        Only honoured under the userspace governor, like the real sysfs
        interface.  Raises under pinned governors to surface configuration
        bugs early instead of silently ignoring the request.
        """
        if self.governor not in (Governor.USERSPACE,):
            raise RuntimeError(
                f"set_frequency requires the userspace governor, not {self.governor.value}"
            )
        applied = self.spec.clamp_frequency(freq_ghz)
        for idx in cores if cores is not None else range(len(self._cores)):
            self._cores[idx].freq_ghz = applied
        return applied

    def observe_utilization(self, utilization: list[float] | np.ndarray) -> None:
        """Feed per-core utilization; dynamic governors react to it."""
        utilization = np.asarray(utilization, dtype=np.float64)
        if utilization.shape != (len(self._cores),):
            raise ValueError(
                f"expected {len(self._cores)} per-core utilizations, got {utilization.shape}"
            )
        for core, u in zip(self._cores, utilization):
            core.utilization = float(np.clip(u, 0.0, 1.0))
            if self.governor == Governor.ONDEMAND:
                if core.utilization >= self.ONDEMAND_UP_THRESHOLD:
                    core.freq_ghz = self.spec.base_freq_ghz
                else:
                    # ondemand scales frequency proportional to load.
                    target = self.spec.min_freq_ghz + core.utilization * (
                        self.spec.base_freq_ghz - self.spec.min_freq_ghz
                    ) / self.ONDEMAND_UP_THRESHOLD
                    core.freq_ghz = self.spec.clamp_frequency(
                        min(target, self.spec.base_freq_ghz)
                    )
            elif self.governor == Governor.CONSERVATIVE:
                lo, hi = self.CONSERVATIVE_BAND
                if core.utilization > hi:
                    core.freq_ghz = self.spec.step_up(core.freq_ghz)
                elif core.utilization < lo:
                    core.freq_ghz = self.spec.step_down(core.freq_ghz)

    def enter_idle(self, core_idx: int, c_state: str = "C6") -> None:
        """Put a core into an idle state (NF sleeping, no packets)."""
        names = {c.name for c in self.spec.c_states}
        if c_state not in names:
            raise ValueError(f"unknown C-state {c_state!r}; options: {sorted(names)}")
        self._cores[core_idx].c_state = c_state

    def wake(self, core_idx: int) -> float:
        """Wake a core to C0; returns the exit latency in microseconds."""
        core = self._cores[core_idx]
        spec = next(c for c in self.spec.c_states if c.name == core.c_state)
        core.c_state = "C0"
        return spec.wake_us

    def frequencies(self) -> np.ndarray:
        """Vector of current per-core frequencies (GHz)."""
        return np.asarray([c.freq_ghz for c in self._cores])

    def idle_power_fractions(self) -> np.ndarray:
        """Per-core idle power fraction from each core's C-state."""
        table = {c.name: c.power_fraction for c in self.spec.c_states}
        return np.asarray([table[c.c_state] for c in self._cores])
