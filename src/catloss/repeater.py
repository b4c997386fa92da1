"""Station-by-station simulation of the one-way communication chain.

A total distance is divided into segments of length L0 with a station at the
end of each.  Every station measures the syndrome and applies the fixed phase
bookkeeping (qubit recovery); amplitude restoration runs only at every
``ar_every``-th station, so between restorations the coherent amplitude keeps
decaying by sqrt(gamma) per segment.

Composition rule: the chain fidelity is the product over stations of the
per-segment correctable-weight sum evaluated at that segment's input
amplitude, and the chain success probability the product of the restoration
factors at the stations that run one.  A restoration factor is evaluated for
the whole interval since the previous restoration composed into one loss
channel: the intermediate syndrome reads refine the phase bookkeeping (hence
the per-station fidelity factors) but do not re-bin the loss classes that
weight the filter branches.  Within a period of ``ar_every`` stations only
``ar_every`` distinct factor pairs occur, so chains of 10^5 stations cost a
handful of closed-form evaluations plus an array product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams
from .codes import CodeSpec, LogicalCoeffs
from .qec import fidelity_state
from .restore import restoration_factor

DEFAULT_ATTENUATION_KM = 22.0

# Below this effective amplitude the encoding is effectively gone.
COLLAPSE_ALPHA = 0.1


def segment_gamma(length_km: float, attenuation_km: float = DEFAULT_ATTENUATION_KM) -> float:
    """Fibre transmission over a segment: gamma = exp(-length/attenuation)."""
    if length_km <= 0 or attenuation_km <= 0:
        raise ValueError("lengths must be positive")
    return float(np.exp(-length_km / attenuation_km))


@dataclass(frozen=True)
class RepeaterConfig:
    """Chain layout plus the code and logical input it carries.

    ar_every = 1 restores the amplitude at every station, ar_every = 2 at
    every second one.
    """

    total_km: float
    spacing_km: float
    spec: CodeSpec
    coeffs: LogicalCoeffs
    attenuation_km: float = DEFAULT_ATTENUATION_KM
    ar_every: int = 1

    def __post_init__(self):
        for name in ("total_km", "spacing_km", "attenuation_km"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.spacing_km <= 0 or self.total_km < self.spacing_km:
            raise ValueError(
                f"need total_km >= spacing_km > 0, got {self.total_km}, {self.spacing_km}"
            )
        if self.attenuation_km <= 0:
            raise ValueError("attenuation_km must be positive")
        if self.ar_every < 1:
            raise ValueError(f"ar_every must be >= 1, got {self.ar_every}")

    @property
    def n_stations(self) -> int:
        ratio = self.total_km / self.spacing_km
        if abs(ratio - round(ratio)) <= 1e-9 * ratio:
            return int(round(ratio))
        warnings.warn(
            f"total_km/spacing_km = {ratio} is not integral; rounding down",
            stacklevel=2,
        )
        return int(np.floor(ratio))


@dataclass(frozen=True)
class ChainResult:
    """Chain totals plus the per-station factor trace.

    ``per_station_trace`` columns: station index (1-based), input amplitude,
    fidelity factor, probability factor.  The totals are the products of the
    factor columns.  ``amplitude_collapsed`` flags chains whose effective
    amplitude fell below the useful range.
    """

    fidelity: float
    success_prob: float
    per_station_trace: np.ndarray | None
    amplitude_collapsed: bool = False


def simulate_chain(config: RepeaterConfig, with_trace: bool = True) -> ChainResult:
    """Run the chain and return total fidelity and success probability."""
    gamma = segment_gamma(config.spacing_km, config.attenuation_km)
    params = ChannelParams(gamma)
    n = config.n_stations
    period = config.ar_every
    alpha = config.spec.alpha

    # Station j (1-based) has type t = (j-1) mod period: its segment input
    # amplitude is alpha damped t times, and it restores when t = period-1.
    f_type = np.empty(period)
    p_type = np.ones(period)
    amp_type = np.empty(period)
    for t in range(period):
        amp_in = alpha * gamma ** (t / 2.0)
        amp_type[t] = amp_in
        local = replace(config.spec, alpha=amp_in)
        f_type[t] = fidelity_state(local, config.coeffs, params)
        if t == period - 1:
            # the whole interval since the last restoration, composed
            p_type[t] = restoration_factor(
                config.spec, config.coeffs, ChannelParams(gamma**period)
            )

    types = np.arange(n) % period
    f_factors = f_type[types]
    p_factors = p_type[types]
    fidelity = float(np.prod(f_factors))
    success = float(np.prod(p_factors))
    collapsed = bool(np.min(amp_type[: min(period, n)]) * np.sqrt(gamma) < COLLAPSE_ALPHA)

    trace = None
    if with_trace:
        trace = np.column_stack(
            [np.arange(1, n + 1, dtype=float), amp_type[types], f_factors, p_factors]
        )
    return ChainResult(
        fidelity=fidelity,
        success_prob=success,
        per_station_trace=trace,
        amplitude_collapsed=collapsed,
    )


def sweep(config: RepeaterConfig, axis: str, values: list[float]) -> list[ChainResult]:
    """One chain per value of the swept axis, in input order, without traces.

    axis 'spacing' varies the station spacing in km, 'alpha' the coherent
    amplitude, and 'gamma' the per-segment transmission (realized by setting
    the spacing to -attenuation * ln(gamma)).
    """
    rows = []
    for v in values:
        if v <= 0:
            raise ValueError(f"sweep values must be positive, got {v}")
        if axis == "spacing":
            cfg = replace(config, spacing_km=v)
        elif axis == "alpha":
            cfg = replace(config, spec=replace(config.spec, alpha=v))
        elif axis == "gamma":
            if v >= 1.0:
                raise ValueError("gamma sweep values must lie in (0, 1)")
            cfg = replace(config, spacing_km=-config.attenuation_km * np.log(v))
        else:
            raise ValueError(f"axis must be spacing|alpha|gamma, got {axis!r}")
        rows.append(simulate_chain(cfg, with_trace=False))
    return rows
