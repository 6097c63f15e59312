"""Server power model and energy metering.

The paper estimates CPU power with the non-linear model of Fan, Weber and
Barroso (ISCA'07), their Eq. (4):

.. math::
    P(u) = (P_{max} - P_{idle}) (2u - u^h) + P_{idle}

where ``u`` is CPU utilization and ``h`` a calibration parameter fitted
against a Yokogawa WT210 power meter.  We implement exactly that model and
extend it with the two effects GreenNFV's knobs expose:

* **DVFS** — ``P_max`` depends on frequency.  Dynamic power scales roughly
  with ``f * V^2`` and voltage scales near-linearly with frequency in the
  DVFS range, giving the classic cubic term; a constant uncore/static share
  remains.  We model ``P_max(f) = P_static + P_dyn * (f / f_base)^3``.
* **C-states** — idle power shrinks when cores sleep;
  :meth:`ServerPowerModel.power` accepts an idle-fraction scale, which the
  packet engine derives from the cores it parks.

The defaults model the *chain-attributed* package power the paper's
measurements report (idle near 30 W, fully-loaded near 150 W at base
frequency), which places episode energies in the 1-4 kJ band of the
paper's figures for the ~20 s measurement windows the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np


@dataclass(frozen=True)
class PowerModelParams:
    """Parameters of the Fan et al. model plus DVFS extension.

    ``h`` is the calibration exponent the authors fit with the WT210 meter;
    ``h = 1.4`` is the value reported in the original ISCA'07 paper and
    works well here.
    """

    p_idle_w: float = 30.0
    p_max_w: float = 150.0
    h: float = 1.4
    #: Fraction of the active power band that is frequency-independent
    #: (uncore, leakage).  The rest scales cubically with frequency.
    static_fraction: float = 0.10
    base_freq_ghz: float = 2.1
    min_freq_ghz: float = 1.2

    def __post_init__(self) -> None:
        if self.p_max_w <= self.p_idle_w:
            raise ValueError("p_max_w must exceed p_idle_w")
        if not 0.0 < self.h <= 2.0:
            raise ValueError(f"calibration exponent h must be in (0, 2], got {self.h}")
        if not 0.0 <= self.static_fraction <= 1.0:
            raise ValueError("static_fraction must be in [0, 1]")
        if self.min_freq_ghz <= 0 or self.base_freq_ghz < self.min_freq_ghz:
            raise ValueError("need 0 < min_freq_ghz <= base_freq_ghz")


class ServerPowerModel:
    """Fan et al. non-linear utilization->power model with DVFS scaling."""

    def __init__(self, params: PowerModelParams | None = None):
        self.params = params or PowerModelParams()

    def p_max_at(self, freq_ghz: float | np.ndarray) -> np.ndarray | float:
        """Full-utilization power at a given core frequency.

        Static share stays constant; dynamic share scales as ``(f/f_base)^3``.
        """
        p = self.params
        if np.isscalar(freq_ghz):
            f = np.float64(min(max(freq_ghz, p.min_freq_ghz), p.base_freq_ghz))
        else:
            f = np.clip(
                np.asarray(freq_ghz, dtype=np.float64), p.min_freq_ghz, p.base_freq_ghz
            )
        band = p.p_max_w - p.p_idle_w
        scale = p.static_fraction + (1 - p.static_fraction) * (f / p.base_freq_ghz) ** 3
        out = p.p_idle_w + band * scale
        return float(out) if np.isscalar(freq_ghz) else out

    def power(
        self,
        utilization: float | np.ndarray,
        freq_ghz: float | np.ndarray | None = None,
        *,
        idle_fraction: float = 1.0,
    ) -> float | np.ndarray:
        """Instantaneous server power in watts.

        Parameters
        ----------
        utilization:
            CPU utilization ``u`` in [0, 1] (values are clipped).
        freq_ghz:
            Operating frequency; ``None`` means base frequency.
        idle_fraction:
            Scale on the idle power term, < 1 when cores sit in deep
            C-states (the packet engine charges a parked core 8% of its
            active-idle share); may be an array broadcast against
            ``utilization``.

        The Fan model term ``2u - u^h`` is monotonically increasing on
        [0, 1] for ``h in (0, 2]``, equals 0 at u=0 and 1 at u=1, so power
        always lands in ``[idle_fraction * P_idle, P_max(f)]``.

        Python floats and numpy scalars take a scalar path; any array,
        0-d included, takes the array path, which prices in place: ``u``,
        then the Fan term, then the watts live in the one fresh array it
        returns (a numpy scalar when every input is 0-d), and ``u^h`` in
        the one scratch array, with the same IEEE operations in the same
        order as ``(P_max - P_idle) * (2u - u^h) + P_idle``.
        """
        p = self.params
        scalar = (
            np.isscalar(utilization)
            and (freq_ghz is None or np.isscalar(freq_ghz))
            and np.isscalar(idle_fraction)
        )
        if scalar:
            u = np.float64(min(max(utilization, 0.0), 1.0))
            p_max = self.p_max_at(freq_ghz if freq_ghz is not None else p.base_freq_ghz)
            p_idle = p.p_idle_w * np.float64(min(max(idle_fraction, 0.0), 1.0))
            shape = 2.0 * u - np.power(u, p.h)
            return float((p_max - p_idle) * shape + p_idle)
        p_max = self.p_max_at(freq_ghz if freq_ghz is not None else p.base_freq_ghz)
        p_idle = p.p_idle_w * np.clip(np.asarray(idle_fraction, dtype=np.float64), 0.0, 1.0)
        band = np.asarray(p_max) - p_idle
        out = np.empty(np.broadcast_shapes(np.shape(utilization), np.shape(band)))
        np.clip(utilization, 0.0, 1.0, out=out)
        fan = np.power(out, p.h)
        np.multiply(2.0, out, out=out)
        np.subtract(out, fan, out=out)
        np.multiply(band, out, out=out)
        np.add(out, p_idle, out=out)
        return out[()] if out.ndim == 0 else out

    def energy(
        self,
        utilization: float | np.ndarray,
        duration_s: float,
        freq_ghz: float | np.ndarray | None = None,
        *,
        idle_fraction: float = 1.0,
    ) -> float | np.ndarray:
        """Energy in joules over ``duration_s`` at constant conditions."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return self.power(utilization, freq_ghz, idle_fraction=idle_fraction) * duration_s

    def calibrate_h(
        self,
        utilizations: np.ndarray,
        measured_watts: np.ndarray,
        *,
        freq_ghz: float | None = None,
        h_grid: np.ndarray | None = None,
    ) -> float:
        """Fit the calibration exponent ``h`` to measured power samples.

        This reproduces the paper's procedure: "We used the Yokogawa WT210
        power meter to measure the actual power to validate the model and
        compute h."  A simple grid search over ``h`` minimizing squared
        error is robust and dependency-free.  Returns the fitted ``h`` and
        replaces :attr:`params` with the calibrated copy.
        """
        utilizations = np.asarray(utilizations, dtype=np.float64)
        measured_watts = np.asarray(measured_watts, dtype=np.float64)
        if utilizations.shape != measured_watts.shape:
            raise ValueError("utilizations and measurements must align")
        if utilizations.size == 0:
            raise ValueError("need at least one calibration sample")
        grid = h_grid if h_grid is not None else np.linspace(0.2, 2.0, 181)
        best_h, best_err = self.params.h, np.inf
        for h in grid:
            candidate = PowerModelParams(
                p_idle_w=self.params.p_idle_w,
                p_max_w=self.params.p_max_w,
                h=float(h),
                static_fraction=self.params.static_fraction,
                base_freq_ghz=self.params.base_freq_ghz,
                min_freq_ghz=self.params.min_freq_ghz,
            )
            model = ServerPowerModel(candidate)
            pred = model.power(utilizations, freq_ghz)
            err = float(np.mean((pred - measured_watts) ** 2))
            if err < best_err:
                best_err, best_h = err, float(h)
        self.params = PowerModelParams(
            p_idle_w=self.params.p_idle_w,
            p_max_w=self.params.p_max_w,
            h=best_h,
            static_fraction=self.params.static_fraction,
            base_freq_ghz=self.params.base_freq_ghz,
            min_freq_ghz=self.params.min_freq_ghz,
        )
        return best_h


class EnergyMeter:
    """Integrating power meter, the simulator's stand-in for the WT210.

    Accumulates ``power * dt`` samples; exposes total joules, average
    power, and joules-per-million-packets when fed packet counts.
    """

    def __init__(self) -> None:
        self._total_j = 0.0
        self._total_s = 0.0
        self._total_packets = 0.0

    @property
    def total_joules(self) -> float:
        """Energy accumulated since construction (J)."""
        return self._total_j

    @property
    def total_seconds(self) -> float:
        """Wall time accumulated since construction (s)."""
        return self._total_s

    @property
    def total_packets(self) -> float:
        """Packets recorded since construction."""
        return self._total_packets

    def record(self, power_w: float, dt_s: float, packets: float = 0.0) -> None:
        """Integrate one sample of ``power_w`` held for ``dt_s`` seconds.

        Both must be finite and non-negative: one NaN or infinite sample
        would leave :attr:`total_joules` non-finite for good.
        """
        if not 0 <= dt_s < np.inf:
            raise ValueError(f"dt must be finite and non-negative, got {dt_s!r}")
        if not 0 <= power_w < np.inf:
            raise ValueError(f"power must be finite and non-negative, got {power_w!r}")
        self._total_j += power_w * dt_s
        self._total_s += dt_s
        self._total_packets += packets

    def average_power(self) -> float:
        """Lifetime average power draw in watts (0 before any sample)."""
        if self._total_s <= 0:
            return 0.0
        return self._total_j / self._total_s

    def joules_per_mpacket(self) -> float:
        """Lifetime Energy/MP, the Fig. 1(c)/4(b) metric."""
        from repro.utils.units import joules_per_mpacket

        return joules_per_mpacket(self._total_j, self._total_packets)

    def reset(self) -> None:
        """Zero all accumulators."""
        self._total_j = self._total_s = self._total_packets = 0.0


def record_many(meters, power_w, dt_s: float, packets) -> np.ndarray:
    """Integrate a block of intervals into many :class:`EnergyMeter`\\ s.

    ``power_w`` and ``packets`` are ``(n, M)``: n intervals of one
    sample per meter.  The result equals calling
    ``meters[m].record(power_w[i, m], dt_s, packets[i, m])`` for every
    interval in order — each accumulator is the same left-to-right sum
    (``np.add.accumulate`` adds one row at a time) — while every meter
    object is read and written once, and it rejects what ``record``
    rejects.  Returns each meter's total joules after each interval,
    ``(n, M)``.
    """
    meters = list(meters)
    power = np.asarray(power_w, dtype=np.float64)
    counts = np.asarray(packets, dtype=np.float64)
    if power.ndim != 2 or power.shape[1] != len(meters) or counts.shape != power.shape:
        raise ValueError("need an (intervals, meters) block of power and packets")
    # Checked before any meter moves, on both paths.
    if not 0 <= dt_s < np.inf:
        raise ValueError(f"dt must be finite and non-negative, got {dt_s!r}")
    if not ((power >= 0) & (power < np.inf)).all():
        raise ValueError("power must be finite and non-negative")
    if len(power) == 1:
        # One interval: a record call per meter skips the array round
        # trip below, which costs 25-35 us more per call at 8-32 meters
        # on a 2-CPU x86-64 box.
        for m, watts, count in zip(meters, power[0].tolist(), counts[0].tolist()):
            m.record(watts, dt_s, count)
        return np.asarray([[m._total_j for m in meters]])
    joules = power * dt_s
    # Row 0 holds the meters' accumulators, rows 1..n the increments.
    acc = np.empty((len(power) + 1, len(meters), 3))
    acc[0] = np.fromiter(
        chain.from_iterable(map(_meter_state, meters)), np.float64, 3 * len(meters)
    ).reshape(len(meters), 3)
    acc[1:, :, 0] = joules
    acc[1:, :, 1] = dt_s
    acc[1:, :, 2] = counts
    np.add.accumulate(acc, axis=0, out=acc)
    for m, (tj, ts, tp) in zip(meters, acc[-1].tolist()):
        m._total_j, m._total_s, m._total_packets = tj, ts, tp
    return acc[1:, :, 0]


_meter_state = attrgetter("_total_j", "_total_s", "_total_packets")
