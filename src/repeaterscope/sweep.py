"""Parameter sweeps, depth optimization, figure presets, deterministic CSV.

A sweep walks the Cartesian product of its axes in lexicographic order
(media alphabetical, numeric axes ascending), optimizes the nesting depth at
each grid point, and emits one row per point.  Output is deterministic to
the byte: fixed column order, 17-significant-digit floats, ``\\n`` line
endings.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from . import metrics
from .channel import (
    ConfigurationError,
    LinkBudget,
    MediumProfile,
    conversion_threshold,
    default_media,
)
from .cascade import InvariantError
from .protocol import PerformancePoint, ProtocolConfig, check_depth, plan_chains
from .states import NoiseParams

DEFAULT_N_RANGE = tuple(range(0, 11))
_NUMERIC_AXES = ("total_distance_km", "conv_eff", "eta_hardware", "t2_s", "eps_g")


def _is_a(value, kind: type) -> bool:
    """``isinstance``, except that a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepSpec:
    """Axes and fixed parameters of one sweep.  An axis may be given as a
    list; it is kept as a sorted tuple of its distinct values."""

    media: tuple[str, ...] = ("HCF", "SMF")
    total_distance_km: tuple[float, ...] = ()
    conv_eff: tuple[float, ...] = (1.0,)
    eta_hardware: tuple[float, ...] = (1.0,)
    t2_s: tuple[float, ...] = (1.0,)
    eps_g: tuple[float, ...] = (1e-3,)
    f_th: float = ProtocolConfig.f_th
    m: int = 1024
    n_range: tuple[int, ...] = DEFAULT_N_RANGE
    output_path: str | None = None

    def __post_init__(self) -> None:
        # the one check of the config's types (a bool is no number, a string
        # only a name); the other ranges belong to the types that own the
        # values, and the depths meet protocol's range here, before a spacing
        # is formed from them
        for name in ("media", "n_range", *_NUMERIC_AXES):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigurationError(f"{name} must be a list")
            if not getattr(self, name):
                raise ConfigurationError(f"{name} axis is empty")
        if not all(isinstance(name, str) for name in self.media):
            raise ConfigurationError("media entries must be names")
        if not all(_is_a(v, numbers.Integral) for v in (self.m, *self.n_range)):
            raise ConfigurationError("m and the n_range entries must be integers")
        for n in self.n_range:
            check_depth(n)
        numeric = [self.f_th, *(v for name in _NUMERIC_AXES for v in getattr(self, name))]
        if not all(_is_a(v, numbers.Real) for v in numeric):
            raise ConfigurationError("f_th and the numeric axis entries must be numbers")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigurationError("output_path must be a file name")
        if any(not 0 < d < math.inf for d in self.total_distance_km):
            raise ConfigurationError("total distances must be positive and finite")
        object.__setattr__(self, "media", tuple(sorted(set(self.media))))
        for name in _NUMERIC_AXES:
            vals = tuple(sorted(set(float(v) for v in getattr(self, name))))
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "n_range", tuple(sorted(set(self.n_range))))


@dataclass(frozen=True)
class SweepRow:
    """One optimized grid point; field order fixes the CSV column order."""

    medium: str
    total_distance_km: float
    conv_eff: float
    eta_hardware: float
    t2_s: float
    eps_g: float
    f_th: float
    m: int
    wavelength_used_nm: int
    best_n: int
    best_l0_km: float
    skr_pcu: float
    completion_prob: float
    ops_per_secret_bit: float
    gate_ops_per_burst: float
    measurement_ops_per_burst: float
    mass_defect: float
    conv_eff_threshold: float


# a computed skr_pcu can exceed its exact bound by rounding only
_BOUND_SLACK = 1.0 + 1e-12


def _wins(skr: float, n: int, held: PerformancePoint | None) -> bool:
    """Whether an SKR of ``skr`` at depth ``n`` replaces ``held``: it is
    larger, or equal at a smaller n.  A NaN wins (and then fails the NaN
    check)."""
    return held is None or not (skr < held.skr_pcu or (skr == held.skr_pcu and n > held.n))


def _best_depths(
    points: list[tuple[MediumProfile, float, float]],
    total_distance_km: float,
    t2_s: float,
    eps_g: float,
    f_th: float,
    m: int,
    n_range: tuple[int, ...],
) -> list[PerformancePoint]:
    """The SKR argmax over depth for each ``(medium, conv_eff, eta_hardware)``
    point; ties keep the smaller n.

    The points must share their media's signal velocity: at each depth they
    then share one schedule and go through one batched evaluation.  A depth
    is evaluated only for the points its SKR bound (``ChainPlan.skr_bounds``)
    lets win, and depths are scanned from the largest bound down, so the
    result equals the full scan's while most depths are never evaluated.
    """
    noise = NoiseParams(eps_g, t2=t2_s)
    scan = []
    for n in n_range:
        # total / 2**n exactly
        l0 = math.ldexp(total_distance_km, -n)
        plan = plan_chains([
            ProtocolConfig(
                medium=medium,
                budget=LinkBudget(eta_hardware=eta_hw, conv_eff=conv, l0_km=l0),
                noise=noise,
                n=n,
                m=m,
                f_th=f_th,
            )
            for medium, conv, eta_hw in points
        ])
        bounds = plan.skr_bounds()
        # a NaN bound sorts first, so that its depth is evaluated and rejected
        top = max(math.inf if math.isnan(b) else b for b in bounds)
        scan.append((-top, n, plan, bounds))
    scan.sort(key=lambda entry: entry[:2])
    best: list[PerformancePoint | None] = [None] * len(points)
    for _, n, plan, bounds in scan:
        live = [i for i, bound in enumerate(bounds) if _wins(bound * _BOUND_SLACK, n, best[i])]
        if not live:
            continue
        for i, point in zip(live, plan.evaluate(live)):
            if math.isnan(point.skr_pcu):
                raise InvariantError(f"skr_pcu is NaN at n={n}")
            if _wins(point.skr_pcu, n, best[i]):
                best[i] = point
    return best


def _sweep_row(
    spec: SweepSpec, medium: MediumProfile, key, point: PerformancePoint
) -> SweepRow:
    name, dist, conv, eta_hw, t2, eps = key
    return SweepRow(
        medium=name,
        total_distance_km=dist,
        conv_eff=conv,
        eta_hardware=eta_hw,
        t2_s=t2,
        eps_g=eps,
        f_th=spec.f_th,
        m=spec.m,
        wavelength_used_nm=point.wavelength_used_nm,
        best_n=point.n,
        best_l0_km=point.l0_km,
        skr_pcu=point.skr_pcu,
        completion_prob=point.completion_prob,
        ops_per_secret_bit=metrics.ops_per_secret_bit(point),
        gate_ops_per_burst=point.ops.two_qubit_gates,
        measurement_ops_per_burst=point.ops.measurements,
        mass_defect=point.mass_defect,
        conv_eff_threshold=conversion_threshold(medium, point.l0_km),
    )


def run_sweep(
    spec: SweepSpec,
    media_profiles: dict[str, MediumProfile] | None = None,
    threads: int = 1,
) -> list[SweepRow]:
    """Evaluate every grid point.  ``spec.output_path`` is not read here:
    ``repeaterscope sweep`` writes the rows there.

    Points that share signal velocity, distance, T2 and gate error share
    their schedule at every depth and are evaluated together.  ``threads``
    is accepted for compatibility and has no effect.
    """
    table = {**default_media(), **(media_profiles or {})}
    for name in spec.media:
        if name not in table:
            raise ConfigurationError(f"unknown medium {name!r}")
    keys = [
        (name, dist, conv, eta_hw, t2, eps)
        for name in spec.media
        for dist in spec.total_distance_km
        for conv in spec.conv_eff
        for eta_hw in spec.eta_hardware
        for t2 in spec.t2_s
        for eps in spec.eps_g
    ]
    groups: dict[tuple, list[tuple]] = {}
    for key in keys:
        name, dist, _, _, t2, eps = key
        groups.setdefault((table[name].signal_velocity_kms, dist, t2, eps), []).append(key)
    best = {}
    for (_, dist, t2, eps), members in groups.items():
        points = [(table[name], conv, eta_hw) for name, _, conv, eta_hw, _, _ in members]
        found = _best_depths(points, dist, t2, eps, spec.f_th, spec.m, spec.n_range)
        best.update(zip(members, found))
    return [_sweep_row(spec, table[key[0]], key, best[key]) for key in keys]


def format_cell(value) -> str:
    """A CSV cell: floats to 17 significant digits, which round-trip."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line, then one line of cells per row, each ending in ``\\n``."""
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[SweepRow]) -> str:
    names = [f.name for f in fields(SweepRow)]
    return csv_text(names, ([getattr(row, name) for name in names] for row in rows))


def _reject_unknown_keys(raw: dict, cls: type, what: str, keyed_by: str = "") -> None:
    """Reject keys that name no field of ``cls``; the ``keyed_by`` field comes
    from the key the entry is filed under, not from the entry."""
    unknown = set(raw) - {f.name for f in fields(cls) if f.name != keyed_by}
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")


def spec_from_dict(raw: dict) -> SweepSpec:
    """Build a SweepSpec from parsed JSON, rejecting unknown keys; the spec
    checks the types of the values."""
    _reject_unknown_keys(raw, SweepSpec, "sweep config")
    return SweepSpec(**raw)


def media_from_dict(raw: dict) -> dict[str, MediumProfile]:
    """Parse optional medium-profile overrides from a config mapping,
    rejecting unknown keys."""
    profiles = {}
    for name, entry in raw.items():
        _reject_unknown_keys(entry, MediumProfile, f"medium profile {name!r}", "name")
        kwargs = {key: float(v) for key, v in entry.items() if key != "att_length_km"}
        att = {int(k): float(v) for k, v in entry["att_length_km"].items()}
        profiles[name] = MediumProfile(name=name, att_length_km=att, **kwargs)
    return profiles


def load_config(path: str) -> tuple[SweepSpec, dict[str, MediumProfile]]:
    """Read a sweep config file: SweepSpec keys plus optional media_profiles."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("sweep config must be a JSON object")
    media_raw = raw.pop("media_profiles", {})
    try:
        profiles = media_from_dict(media_raw) if media_raw else {}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigurationError(f"malformed media_profiles: {exc!r}") from exc
    return spec_from_dict(raw), profiles


_DISTANCES = tuple(float(d) for d in range(100, 1001, 100))


def figure_preset(name: str) -> SweepSpec:
    """Hard-coded sweep grids matching the published comparison figures."""
    presets = {
        # wavelength-choice boundary: single links, fine spacing grid
        "fig3": SweepSpec(
            media=("HCF", "SMF"),
            total_distance_km=tuple(float(x) for x in range(1, 101)),
            conv_eff=(0.3, 0.5, 0.7, 0.9, 1.0),
            eps_g=(1e-3,),
            n_range=(0,),
        ),
        # SKR ratio over distance x conversion efficiency
        "fig5": SweepSpec(
            media=("HCF", "SMF"),
            total_distance_km=_DISTANCES,
            conv_eff=(0.3, 0.5, 0.7, 1.0),
            eps_g=(1e-4, 1e-3),
        ),
        # SKR ratio over distance x hardware efficiency at conv_eff 0.5
        "fig6": SweepSpec(
            media=("HCF", "SMF"),
            total_distance_km=_DISTANCES,
            conv_eff=(0.5,),
            eta_hardware=(0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
            eps_g=(1e-4, 1e-3),
        ),
        # optimal spacing vs distance for both conversion rows
        "fig8": SweepSpec(
            media=("HCF", "SMF"),
            total_distance_km=_DISTANCES,
            conv_eff=(0.5, 1.0),
            eps_g=(1e-4, 1e-3, 1e-2),
        ),
        # SKR vs distance with memory-quality sweep
        "skr_curves": SweepSpec(
            media=("HCF", "SMF"),
            total_distance_km=tuple(float(d) for d in range(50, 1001, 50)),
            conv_eff=(0.5, 1.0),
            t2_s=(0.01, 0.1, 1.0),
            eps_g=(1e-4, 1e-3, 1e-2),
        ),
    }
    # operations per delivered key, on the fig5 grid
    presets["fig7"] = presets["fig5"]
    try:
        return presets[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure preset {name!r}; choose from {sorted(presets)}"
        ) from None
