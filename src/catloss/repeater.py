"""Station-by-station simulation of the one-way communication chain.

A total distance is divided into segments of length L0 with a station at the
end of each.  Every station measures the syndrome and applies the fixed phase
bookkeeping (qubit recovery); amplitude restoration runs only at every
``ar_every``-th station, so between restorations the coherent amplitude keeps
decaying by sqrt(gamma) per segment.

Composition rule: the chain fidelity is the product over stations of the
per-segment correctable-weight sum at that segment's input amplitude, and the
success probability the product of the restoration factors of the stations
that run one, each over the whole interval since the last restoration composed
into one loss channel (intermediate syndrome reads refine the phase
bookkeeping, not the loss classes that weight the filter branches).

A chain set is one ``RepeaterConfig`` of columns, one chain being the shape ().
A period of ``ar_every`` stations has ``ar_every`` distinct factor pairs, so a set
of 10^5-station chains costs one mixture batch plus, per chain, a power per period row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelParams, mixture_weights
from .codes import SMALL_ALPHA, CodeSpec, LogicalCoeffs, quiet_spec
from .qec import fidelity_from_weights
from .restore import restoration_from_weights

DEFAULT_ATTENUATION_KM = 22.0


def segment_gamma(length_km: float, attenuation_km: float = DEFAULT_ATTENUATION_KM) -> float:
    """Fibre transmission over a segment: gamma = exp(-length/attenuation)."""
    if length_km <= 0 or attenuation_km <= 0:
        raise ValueError("lengths must be positive")
    return float(np.exp(-length_km / attenuation_km))


@dataclass(frozen=True, eq=False)
class RepeaterConfig:
    """A chain set: its layout plus the code and logical input each chain carries.

    ``total_km``, ``spacing_km``, ``attenuation_km``, ``ar_every`` (1 restores the
    amplitude at every station, 2 at every second one), ``spec.alpha`` and the leading
    axes of ``coeffs.values`` are columns that broadcast to one batch shape; one chain
    is the batch of shape ().  The chains share the code's (L, d)."""

    total_km: float
    spacing_km: float
    spec: CodeSpec
    coeffs: LogicalCoeffs
    attenuation_km: float = DEFAULT_ATTENUATION_KM
    ar_every: int = 1

    _columns: tuple = field(init=False, repr=False)

    def __post_init__(self):
        *broadcast, values = np.broadcast_arrays(*(np.expand_dims(c, -1) for c in (
            self.total_km, self.spacing_km, self.attenuation_km, self.ar_every,
            self.spec.alpha)), self.coeffs.values)
        object.__setattr__(self, "_columns", (*(c[..., 0] for c in broadcast), values))
        total, spacing, attenuation, ar_every = self._columns[:4]
        with np.errstate(all="ignore"):  # a non-finite ratio fails its check below
            ratio = total / spacing
        for ok, message, *columns in [
            *((np.isfinite(c), f"{name} must be finite, got {{}}", c) for name, c in
              (("total_km", total), ("spacing_km", spacing), ("attenuation_km", attenuation))),
            ((spacing > 0) & (total >= spacing), "need total_km >= spacing_km > 0, got {}, {}",
             total, spacing),
            (attenuation > 0, "attenuation_km must be positive"),
            (ar_every >= 1, "ar_every must be >= 1, got {}", ar_every),
            # numpy holds an int past int64 as uint64 or object, which np.repeat refuses
            (ar_every < 2**63, "ar_every must be below 2**63, got {}", ar_every),
            # above 2**53 a float ratio no longer rounds to an exact station count
            (ratio <= 2**53, "total_km/spacing_km = {} must be finite and at most 2**53", ratio),
        ]:
            if not np.all(ok):  # named by the first failing chain's values
                i = np.argmin(ok)
                raise ValueError(message.format(*(np.ravel(c).tolist()[i] for c in columns)))

    def columns(self) -> tuple[np.ndarray, ...]:
        """total_km, spacing_km, attenuation_km, ar_every and alpha broadcast to
        the set's shape, then the logical amplitudes broadcast to it plus (d,);
        broadcast once, when the set is made."""
        return self._columns

    @property
    def n_stations(self):
        """Stations of each chain, an int for one chain; each chain whose
        total_km/spacing_km is not integral warns once and rounds down."""
        ratio = np.divide(*self.columns()[:2])
        exact = abs(ratio - np.round(ratio)) <= 1e-9 * ratio
        for r in np.extract(~exact, ratio).tolist():
            warnings.warn(f"total_km/spacing_km = {r} is not integral; rounding down",
                          stacklevel=2)
        n = np.where(exact, np.round(ratio), np.floor(ratio)).astype(np.int64)
        return n if n.ndim else int(n)


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


def simulate_chains(config: RepeaterConfig) -> list[ChainResult]:
    """Run the chains of a set, in C order of its batch shape, as one
    ``mixture_weights`` batch: the period rows of all chains give the fidelity
    factors, the restoring rows after them the restoration factors.  Row t of
    a period takes alpha damped t times; it restores when t = ar_every - 1,
    over the whole interval since the last restoration, composed."""
    stations = np.ravel(config.n_stations)
    if not stations.size:
        return []
    *columns, values = config.columns()
    _, spacing, attenuation, ar_every, alpha = (c.ravel() for c in columns)
    rows = np.minimum(ar_every, stations)
    starts = np.cumsum(rows) - rows
    owner = np.repeat(np.arange(len(rows)), rows)
    # exp and pow one Python float at a time: numpy's vector loops may round otherwise
    gammas = [segment_gamma(s, a) for s, a in zip(spacing.tolist(), attenuation.tolist())]
    row_gammas = np.array(gammas)[owner]
    # every period row of every chain: (amplitude_in, f_factor, p_factor)
    table = np.ones((len(owner), 3))
    table[:, 0] = [a * g ** (t / 2.0) for a, g, r in zip(alpha.tolist(), gammas, rows.tolist())
                   for t in range(r)]
    restoring = np.flatnonzero(ar_every <= stations)
    interval = np.array([gammas[i] ** k for i, k in
                         zip(restoring.tolist(), ar_every[restoring].tolist())])
    # damped row amplitudes (as mixture_weights forms them) and restoring intervals must be > 0
    live = np.logical_and.reduceat(np.sqrt(row_gammas) * table[:, 0] > 0, starts)
    live[restoring] &= interval > 0
    if not live.all():
        i = live.argmin()
        raise ValueError(f"transmission underflows to 0 at spacing_km={spacing[i]}, "
                         f"attenuation_km={attenuation[i]}, ar_every={ar_every[i]}")
    # the period rows, then the restoring rows: nominal alpha over the whole interval
    spec = CodeSpec(config.spec.L, config.spec.d, np.append(table[:, 0], alpha[restoring]))
    coeffs = LogicalCoeffs(values.reshape(len(rows), -1)[np.append(owner, restoring)])
    weights = mixture_weights(spec, coeffs, ChannelParams(np.append(row_gammas, interval)))
    table[:, 1] = fidelity_from_weights(weights[: len(owner)])
    if restoring.size:
        table[starts[restoring] + rows[restoring] - 1, 2] = restoration_from_weights(
            LogicalCoeffs(coeffs.values[len(owner):]), weights[len(owner):])
    # roundoff lifts some factors a few ulps above 1, which a power of 10^5 amplifies
    table[:, 1:] = np.minimum(table[:, 1:], 1.0)
    collapsed = np.minimum.reduceat(table[:, 0], starts) * np.sqrt(gammas) < SMALL_ALPHA
    results = []
    for n, k, start, r, flag in zip(stations.tolist(), ar_every.tolist(), starts.tolist(),
                                    rows.tolist(), collapsed.tolist()):
        period = table[start:start + r]
        # row t repeats at n // ar_every stations, one more in a cut last period
        counts = [n // k + (t < n % k) for t in range(r)]
        f, p = (math.prod(x ** c for x, c in zip(column, counts))
                for column in period[:, 1:].T.tolist())
        results.append(ChainResult(f, p, n, period, flag))
    return results


def sweep(config: RepeaterConfig, axis: str, values: list[float]) -> list[ChainResult]:
    """One chain per value of the swept axis, in input order: the chain
    ``config`` with the swept column set to the values.

    axis 'spacing' varies the station spacing in km, 'alpha' the coherent
    amplitude, and 'gamma' the per-segment transmission (realized by setting
    the spacing to -attenuation * ln(gamma)).
    """
    if axis not in ("spacing", "alpha", "gamma"):
        raise ValueError(f"axis must be spacing|alpha|gamma, got {axis!r}")
    for v in values:
        if not v > 0:  # NaN too, which no comparison holds for
            raise ValueError(f"sweep values must be finite and positive, got {v}")
        if axis == "gamma" and v >= 1.0:
            raise ValueError("gamma sweep values must lie in (0, 1)")
    if axis == "alpha":  # the chain set's batch warns once for all values
        spec = quiet_spec(config.spec.L, config.spec.d, np.array(values, dtype=float))
        return simulate_chains(replace(config, spec=spec))
    if axis == "gamma":
        values = [-config.attenuation_km * np.log(v) for v in values]
    return simulate_chains(replace(config, spacing_km=np.array(values, dtype=float)))
