"""Shared utilities: RNG streams, streaming stats, units, table rendering."""

from repro.utils.rng import StreamFactory, as_generator, spawn
from repro.utils.stats import EWMA, DoubleExponentialSmoothing
from repro.utils.tables import ExperimentReport, render_series, render_table
from repro.utils.units import (
    ETH_OVERHEAD_BYTES,
    MAX_PACKET_BYTES,
    MIN_PACKET_BYTES,
    bps_to_gbps,
    bytes_to_mb,
    gbps_to_bps,
    gbps_to_pps,
    joules_per_mpacket,
    line_rate_pps,
    mb_to_bytes,
    mpps_to_pps,
    pps_to_gbps,
    pps_to_mpps,
)

__all__ = [
    "StreamFactory",
    "as_generator",
    "spawn",
    "EWMA",
    "DoubleExponentialSmoothing",
    "ExperimentReport",
    "render_series",
    "render_table",
    "ETH_OVERHEAD_BYTES",
    "MAX_PACKET_BYTES",
    "MIN_PACKET_BYTES",
    "bps_to_gbps",
    "bytes_to_mb",
    "gbps_to_bps",
    "gbps_to_pps",
    "joules_per_mpacket",
    "line_rate_pps",
    "mb_to_bytes",
    "mpps_to_pps",
    "pps_to_gbps",
    "pps_to_mpps",
]
