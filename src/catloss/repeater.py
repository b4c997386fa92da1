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
``ar_every`` distinct factor pairs occur, so chains of 10^5 stations cost one
mixture batch per chain set plus, per chain, one power of each period row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelParams, mixture_weights
from .codes import SMALL_ALPHA, CodeSpec, LogicalCoeffs
from .qec import fidelity_from_weights
from .restore import restoration_from_weights

DEFAULT_ATTENUATION_KM = 22.0


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
        # above 2**53 a float ratio no longer rounds to an exact station count
        ratio = self.total_km / self.spacing_km
        if not ratio <= 2**53:
            raise ValueError(f"total_km/spacing_km = {ratio} must be finite and at most 2**53")

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
    than its period never restores.  Each total is the product over the
    period rows of factor ** (the number of stations repeating the row).
    ``amplitude_collapsed`` flags chains whose effective amplitude fell below
    ``codes.SMALL_ALPHA``, where the codewords can no longer be told apart.
    """

    fidelity: float
    success_prob: float
    n_stations: int
    # left out of ==, since arrays have no single truth value
    period: np.ndarray = field(compare=False)
    amplitude_collapsed: bool = False


def simulate_chain(config: RepeaterConfig) -> ChainResult:
    """Run the chain and return its totals and its period of factor rows."""
    return simulate_chains([config])[0]


def simulate_chains(configs: list[RepeaterConfig]) -> list[ChainResult]:
    """Run chains whose codes share (L, d), in input order, as one
    ``mixture_weights`` batch: the period rows of all chains give the fidelity
    factors, the restoring rows after them the restoration factors.  Row t of
    a period takes alpha damped t times; it restores when t = ar_every - 1,
    over the whole interval since the last restoration, composed."""
    if not configs:
        return []
    L, d = configs[0].spec.L, configs[0].spec.d
    if any((c.spec.L, c.spec.d) != (L, d) for c in configs):
        raise ValueError("chains evaluated together must share the code's (L, d)")
    gammas = [segment_gamma(c.spacing_km, c.attenuation_km) for c in configs]
    stations = [c.n_stations for c in configs]
    rows = [min(c.ar_every, n) for c, n in zip(configs, stations)]
    starts = np.cumsum([0] + rows[:-1])
    owner = np.repeat(np.arange(len(configs)), rows)
    # every period row of every chain: (amplitude_in, f_factor, p_factor)
    table = np.ones((len(owner), 3))
    table[:, 0] = [c.spec.alpha * g ** (t / 2.0)
                   for c, g, r in zip(configs, gammas, rows) for t in range(r)]
    restoring = [i for i, c in enumerate(configs) if c.ar_every <= stations[i]]
    interval = np.array([gammas[i] ** configs[i].ar_every for i in restoring])
    # damped row amplitudes (as mixture_weights forms them) and restoring intervals must be > 0
    live = np.logical_and.reduceat(np.sqrt(np.array(gammas)[owner]) * table[:, 0] > 0, starts)
    live[restoring] &= interval > 0
    if not live.all():
        c = configs[live.argmin()]
        raise ValueError(f"transmission underflows to 0 at spacing_km={c.spacing_km}, "
                         f"attenuation_km={c.attenuation_km}, ar_every={c.ar_every}")
    # the period rows, then the restoring rows: nominal alpha over the whole interval
    spec = CodeSpec(L, d, np.append(table[:, 0], [configs[i].spec.alpha for i in restoring]))
    coeffs = LogicalCoeffs.stack([configs[i].coeffs for i in [*owner, *restoring]])
    row_gammas = np.append(np.array(gammas)[owner], interval)
    weights = mixture_weights(spec, coeffs, ChannelParams(row_gammas))
    table[:, 1] = fidelity_from_weights(spec, weights[: len(owner)])
    if restoring:
        rest = np.s_[len(owner):]
        table[[starts[i] + configs[i].ar_every - 1 for i in restoring], 2] = (
            restoration_from_weights(spec, LogicalCoeffs(coeffs.values[rest]), weights[rest]))
    # roundoff lifts some factors a few ulps above 1, which a power of 10^5 amplifies
    table[:, 1:] = np.minimum(table[:, 1:], 1.0)
    results = []
    for c, n, gamma, period in zip(configs, stations, gammas, np.split(table, starts[1:])):
        # row t repeats at n // ar_every stations, one more in a cut last period
        counts = [n // c.ar_every + (t < n % c.ar_every) for t in range(len(period))]
        f, p = (math.prod(x ** k for x, k in zip(column, counts))
                for column in period[:, 1:].T.tolist())
        results.append(ChainResult(
            fidelity=f,
            success_prob=p,
            n_stations=n,
            period=period,
            amplitude_collapsed=bool(np.min(period[:, 0]) * np.sqrt(gamma) < SMALL_ALPHA),
        ))
    return results


def sweep(config: RepeaterConfig, axis: str, values: list[float]) -> list[ChainResult]:
    """One chain per value of the swept axis, in input order.

    axis 'spacing' varies the station spacing in km, 'alpha' the coherent
    amplitude, and 'gamma' the per-segment transmission (realized by setting
    the spacing to -attenuation * ln(gamma)).
    """
    configs = []
    for v in values:
        if v <= 0:
            raise ValueError(f"sweep values must be positive, got {v}")
        if axis == "spacing":
            cfg = replace(config, spacing_km=v)
        elif axis == "alpha":
            with warnings.catch_warnings():  # the chain set's batch warns once for all values
                warnings.simplefilter("ignore", UserWarning)
                cfg = replace(config, spec=CodeSpec(config.spec.L, config.spec.d, v))
        elif axis == "gamma":
            if v >= 1.0:
                raise ValueError("gamma sweep values must lie in (0, 1)")
            cfg = replace(config, spacing_km=-config.attenuation_km * np.log(v))
        else:
            raise ValueError(f"axis must be spacing|alpha|gamma, got {axis!r}")
        configs.append(cfg)
    return simulate_chains(configs)
