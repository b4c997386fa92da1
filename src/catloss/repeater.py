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
A period of ``ar_every`` stations has ``ar_every`` distinct factor pairs, so a set of
10^5-station chains costs one mixture batch plus array passes over its period rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelParams, mixture_weights
from .codes import SMALL_ALPHA, CodeSpec, LogicalCoeffs, quiet_spec
from .qec import fidelity_from_weights
from .restore import restoration_from_weights

DEFAULT_ATTENUATION_KM = 22.0


def segment_gamma(length_km, attenuation_km=DEFAULT_ATTENUATION_KM):
    """Fibre transmission exp(-length/attenuation) per segment, elementwise; a float for scalars."""
    if np.any(np.minimum(length_km, attenuation_km) <= 0):
        raise ValueError("lengths must be positive")
    return np.exp(-np.asarray(length_km, float) / attenuation_km)[()]


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

    # total_km, spacing_km, attenuation_km, ar_every and alpha broadcast to the set's
    # shape, then the logical amplitudes to it plus (d,); broadcast once, when it is made
    columns: tuple = field(init=False, repr=False)

    def __post_init__(self):
        *broadcast, values = np.broadcast_arrays(*(np.expand_dims(c, -1) for c in (
            self.total_km, self.spacing_km, self.attenuation_km, self.ar_every,
            self.spec.alpha)), self.coeffs.values)
        object.__setattr__(self, "columns", (*(c[..., 0] for c in broadcast), values))
        total, spacing, attenuation, ar_every = self.columns[:4]
        odd = ar_every.dtype.kind not in "iu" and [  # ints past uint64 are objects
            k for k in ar_every.ravel().tolist() if type(k) is bool or not isinstance(k, int)]
        if odd:  # a float, bool or str, named by the first
            raise ValueError(f"ar_every must be an integer, got {odd[0]!r}")
        with np.errstate(all="ignore"):  # a non-finite ratio fails its check below
            ratio = total / spacing
        for ok, message, *columns in [
            *((np.isfinite(c), f"{name} must be finite, got {{}}", c) for name, c in
              (("total_km", total), ("spacing_km", spacing), ("attenuation_km", attenuation))),
            ((spacing > 0) & (total >= spacing), "need total_km >= spacing_km > 0, got {}, {}",
             total, spacing),
            (attenuation > 0, "attenuation_km must be positive"),
            (ar_every >= 1, "ar_every must be >= 1, got {}", ar_every),
            # numpy holds an int past int64 as uint64 or object, which no int64 count holds
            (ar_every < 2**63, "ar_every must be below 2**63, got {}", ar_every),
            # above 2**53 a float ratio no longer rounds to an exact station count
            (ratio <= 2**53, "total_km/spacing_km = {} must be finite and at most 2**53", ratio),
        ]:
            if not np.all(ok):  # named by the first failing chain's values
                i = np.argmin(ok)
                raise ValueError(message.format(*(np.ravel(c).tolist()[i] for c in columns)))

    @property
    def n_stations(self):
        """Stations of each chain, an int for one chain; each chain whose
        total_km/spacing_km is not integral warns once and rounds down."""
        ratio = np.divide(*self.columns[:2])
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
    *columns, values = config.columns
    _, spacing, attenuation, ar_every, alpha = (c.ravel() for c in columns)
    ar_every = ar_every.astype(np.int64)  # checked ints below 2**63, uint64 or objects too
    rows = np.minimum(ar_every, stations)
    starts = np.cumsum(rows) - rows
    owner = np.repeat(np.arange(len(rows)), rows)
    t = np.arange(len(owner)) - starts[owner]  # each row's place in its period
    # float_power and exp arrays round as the per-chain scalar calls did; np.power does not
    gammas = segment_gamma(spacing, attenuation)
    row_gammas = gammas[owner]
    # every period row of every chain: (amplitude_in, f_factor, p_factor)
    table = np.ones((len(owner), 3))
    table[:, 0] = alpha[owner] * np.float_power(row_gammas, t / 2.0)
    restoring = np.flatnonzero(ar_every <= stations)
    interval = np.float_power(gammas[restoring], ar_every[restoring])
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
    q, m = np.divmod(stations, ar_every)  # row t repeats q times, once more in a cut period
    powers = np.float_power(table[:, 1:], (q[owner] + (t < m[owner]))[:, None])
    totals = np.empty((len(rows), 2))
    for r in np.flatnonzero(np.bincount(rows)).tolist():  # lengths; np.unique loads numpy.ma
        chains = np.flatnonzero(rows == r)
        period = powers[starts[chains, None] + np.arange(r)]  # a product in row order from 1
        totals[chains] = np.multiply.accumulate(period, axis=1, out=period)[:, -1]
    return [ChainResult(f, p, n, table[i:i + r], c) for (f, p), n, i, r, c in zip(
        totals.tolist(), stations.tolist(), starts.tolist(), rows.tolist(), collapsed.tolist())]


def sweep(config: RepeaterConfig, axis: str, values: list[float]) -> list[ChainResult]:
    """One chain per value of the swept axis, in input order: the chain
    ``config`` with the swept column set to the values.

    axis 'spacing' varies the station spacing in km, 'alpha' the coherent
    amplitude, and 'gamma' the per-segment transmission (realized by setting
    the spacing to -attenuation * ln(gamma)).
    """
    if axis not in ("spacing", "alpha", "gamma"):
        raise ValueError(f"axis must be spacing|alpha|gamma, got {axis!r}")
    v = np.array(values, dtype=float)
    bad = ~(v > 0) | ((v >= 1.0) if axis == "gamma" else False)  # NaN fails v > 0 too
    if bad.any():  # named by the first bad value
        i = bad.argmax()
        raise ValueError("gamma sweep values must lie in (0, 1)" if v[i] > 0 else
                         f"sweep values must be finite and positive, got {values[i]}")
    if axis == "alpha":  # the chain set's batch warns once for all values
        return simulate_chains(replace(config, spec=quiet_spec(config.spec.L, config.spec.d, v)))
    if axis == "gamma":
        v = -np.multiply.outer(np.log(v), config.attenuation_km)
        over = np.isfinite(v) & (v > config.total_km)  # as the chain set pairs them
        if over.any():  # named by the gamma the user set; an infinite spacing is the attenuation's
            i = np.nonzero(over)[over.ndim - v.ndim].min()  # the first value, on its own axis
            raise ValueError(f"gamma {values[i]} sets a spacing of {v[i]} km, above total_km "
                             f"{config.total_km}")
    return simulate_chains(replace(config, spacing_km=v))
