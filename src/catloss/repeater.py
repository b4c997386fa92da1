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
from dataclasses import dataclass, field, replace

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
    """Chain totals plus the factor rows of one restoration period.

    ``period`` holds the (amplitude_in, f_factor, p_factor) rows of stations
    1 .. min(ar_every, n_stations); station i (1-based) repeats row
    (i - 1) mod ar_every, the last repetition possibly cut.  A chain shorter
    than its period never restores.  The totals are the products of the
    expanded factor columns.  ``amplitude_collapsed`` flags chains whose
    effective amplitude fell below the useful range.
    """

    fidelity: float
    success_prob: float
    n_stations: int
    # left out of ==, since arrays have no single truth value
    period: np.ndarray = field(compare=False)
    amplitude_collapsed: bool = False


def simulate_chain(config: RepeaterConfig) -> ChainResult:
    """Run the chain and return its totals and its period of factor rows."""
    gamma = segment_gamma(config.spacing_km, config.attenuation_km)
    params = ChannelParams(gamma)
    n = config.n_stations
    ar_every = config.ar_every
    alpha = config.spec.alpha

    # Period row t: the segment input amplitude is alpha damped t times,
    # and the station restores when t = ar_every - 1.
    period = np.ones((min(ar_every, n), 3))
    for t in range(len(period)):
        amp_in = alpha * gamma ** (t / 2.0)
        period[t, 0] = amp_in
        period[t, 1] = fidelity_state(replace(config.spec, alpha=amp_in), config.coeffs, params)
        if t == ar_every - 1:
            # the whole interval since the last restoration, composed
            period[t, 2] = restoration_factor(
                config.spec, config.coeffs, ChannelParams(gamma**ar_every)
            )

    station_rows = np.arange(n) % ar_every
    collapsed = bool(np.min(period[:, 0]) * np.sqrt(gamma) < COLLAPSE_ALPHA)
    return ChainResult(
        fidelity=float(np.prod(period[station_rows, 1])),
        success_prob=float(np.prod(period[station_rows, 2])),
        n_stations=n,
        period=period,
        amplitude_collapsed=collapsed,
    )


def sweep(config: RepeaterConfig, axis: str, values: list[float]) -> list[ChainResult]:
    """One chain per value of the swept axis, in input order.

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
        rows.append(simulate_chain(cfg))
    return rows
