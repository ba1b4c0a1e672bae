"""Golden outputs: the figure presets regenerate their committed CSVs.

Each preset in ``GOLDEN_SPECS`` is swept and compared row by row with
``tests/golden/<name>.csv``: exactly on every column that is not a float
(``medium``, ``m``, ``wavelength_used_nm``, ``best_n``), to a relative
1e-12 on the float columns, and to an absolute 1e-15 on ``mass_defect``,
which is the cancelling difference ``1 - scaled_total``.

``couple_<wavelength>.csv`` hold the output of ``repeaterscope couple
--wavelength <wavelength>`` at its default 26 tilt angles; the angle and the
HCF constant must match exactly, ``eta_smf_<wavelength>`` to a relative
1e-12.

Run ``PYTHONPATH=src python tests/test_goldens.py [name ...]`` to write a
missing golden file or, for a change that is meant to move outputs, to
rewrite it.  Every name rewrites its file whole, so each golden holds its
command's output byte for byte; for a preset it first prints how many rows
moved outside these tolerances and the largest move.

``CLI_GOLDENS`` maps the other golden files to the ``repeaterscope``
arguments that write them: ``link``, ``chain`` (with ``--trace --oracle``,
in CSV, and at a certain reset) and a small ``sweep`` in JSON, whose config
is ``sweep_small_config.json``.  Each must match byte for byte.
"""

import contextlib
import csv
import dataclasses
import io
import math
import pathlib
import random
import sys

import pytest

from repeaterscope import cascade, cli, coupling, protocol
from repeaterscope.sweep import SweepRow, figure_preset, rows_to_csv, run_sweep

from conftest import reference_binomial_rows

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

REL_TOL = 1e-12
ABS_TOL = {"mass_defect": 1e-15}

FLOAT_COLUMNS = frozenset(f.name for f in dataclasses.fields(SweepRow) if f.type == "float")


def _skr_curves_slice():
    # every memory quality, gate error and conversion efficiency, at five of
    # the twenty distances
    return dataclasses.replace(
        figure_preset("skr_curves"),
        total_distance_km=(50.0, 250.0, 500.0, 750.0, 1000.0),
    )


GOLDEN_SPECS = {
    "fig3": lambda: figure_preset("fig3"),
    "fig5": lambda: figure_preset("fig5"),
    "fig6": lambda: figure_preset("fig6"),
    "fig8": lambda: figure_preset("fig8"),
    "skr_curves_slice": _skr_curves_slice,
}


def _parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def cell_move(column: str, golden: str, value: str, float_columns=FLOAT_COLUMNS) -> float:
    """How far ``value`` sits from ``golden``, in units of the tolerance.

    A result above 1 is outside the tolerance.
    """
    if column not in float_columns:
        return 0.0 if golden == value else math.inf
    a, b = float(golden), float(value)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    if column in ABS_TOL:
        return abs(a - b) / ABS_TOL[column]
    scale = max(abs(a), abs(b)) * REL_TOL
    return abs(a - b) / scale


def row_moves(
    golden: list[dict[str, str]], rows: list[dict[str, str]], float_columns=FLOAT_COLUMNS
) -> list[tuple[int, str, float]]:
    """(row index, column, move) of every cell outside its tolerance."""
    assert len(golden) == len(rows), f"{len(rows)} rows against {len(golden)} golden rows"
    out = []
    for i, (g, r) in enumerate(zip(golden, rows)):
        assert list(g) == list(r), f"row {i}: columns {list(r)} != {list(g)}"
        for column in g:
            move = cell_move(column, g[column], r[column], float_columns)
            if move > 1.0:
                out.append((i, column, move))
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_preset_matches_golden(name):
    golden = _parse((GOLDEN_DIR / f"{name}.csv").read_text())
    rows = _parse(rows_to_csv(run_sweep(GOLDEN_SPECS[name]())))
    moves = row_moves(golden, rows)
    described = [
        f"row {i} {golden[i]['medium']} {golden[i]['total_distance_km']} km {column}: "
        f"{golden[i][column]} -> {rows[i][column]}"
        for i, column, _ in moves[:10]
    ]
    assert not moves, f"{len(moves)} cells outside tolerance:\n" + "\n".join(described)


# the sign of SKR's change along each preset axis: it never rises with
# distance or gate error, and never falls with conversion, hardware
# efficiency or memory time
SKR_DIRECTION = {"total_distance_km": -1, "eps_g": -1, "conv_eff": 1, "eta_hardware": 1, "t2_s": 1}


def monotonicity_breaks(rows: list[dict[str, str]]) -> tuple[int, list[tuple[str, dict, dict]]]:
    """The number of neighbouring row pairs along each axis of
    ``SKR_DIRECTION`` (every other column held), and ``(axis, lower, upper)``
    for each pair whose SKR moves against that direction."""
    pairs, breaks = 0, []
    for axis, sign in SKR_DIRECTION.items():
        held = ["medium", *(a for a in SKR_DIRECTION if a != axis)]
        lines: dict[tuple, list] = {}
        for row in rows:
            lines.setdefault(tuple(row[a] for a in held), []).append(row)
        for line in lines.values():
            line.sort(key=lambda row: float(row[axis]))
            for lower, upper in zip(line, line[1:]):
                pairs += 1
                if sign * (float(upper["skr_pcu"]) - float(lower["skr_pcu"])) < 0:
                    breaks.append((axis, lower, upper))
    return pairs, breaks


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_skr_is_monotone_along_every_axis(name):
    pairs, breaks = monotonicity_breaks(_parse((GOLDEN_DIR / f"{name}.csv").read_text()))
    assert pairs > 0
    assert breaks == []


@pytest.mark.slow
def test_skr_curves_has_one_monotonicity_break():
    # SMF at conv 0.5, T2 0.1 s and eps_g 1e-2 gains SKR from 550 to 600 km,
    # both at n = 3: at 600 km the recursion renormalizes away a per-segment
    # mass defect of 0.76, which it counts as neither a pair nor a reset
    rows = _parse(rows_to_csv(run_sweep(figure_preset("skr_curves"))))
    pairs, breaks = monotonicity_breaks(rows)
    assert pairs == 2004
    ((axis, lower, upper),) = breaks
    assert axis == "total_distance_km"
    assert {k: float(lower[k]) for k in ("conv_eff", "eta_hardware", "t2_s", "eps_g")} == {
        "conv_eff": 0.5, "eta_hardware": 1.0, "t2_s": 0.1, "eps_g": 1e-2,
    }
    assert lower["medium"] == upper["medium"] == "SMF"
    assert (float(lower["total_distance_km"]), float(upper["total_distance_km"])) == (550.0, 600.0)
    assert lower["best_n"] == upper["best_n"] == "3"
    assert float(lower["skr_pcu"]) == pytest.approx(4.245e-5, rel=1e-3)
    assert float(upper["skr_pcu"]) == pytest.approx(5.137e-5, rel=1e-3)
    assert float(upper["mass_defect"]) == pytest.approx(0.759, abs=1e-3)


@pytest.mark.slow
def test_fig5_meets_the_recursion_on_50_digit_generation_rows(monkeypatch):
    # the reference runs the same float64 recursion on generation rows formed
    # at 50 digits and rounded once, so what separates the two is the error of
    # the generation kernel and what the recursion makes of it
    rows = run_sweep(figure_preset("fig5"))
    monkeypatch.setattr(cascade, "_binomial_rows", reference_binomial_rows)
    reference = run_sweep(figure_preset("fig5"))
    assert len(rows) == len(reference) == 160
    for row, ref in zip(rows, reference):
        for column in (f.name for f in dataclasses.fields(SweepRow)):
            a, b = getattr(row, column), getattr(ref, column)
            if column not in FLOAT_COLUMNS:
                assert a == b, (column, a, b)
            elif not (a == b or (math.isnan(a) and math.isnan(b))):
                scale = 1.0 if column in ABS_TOL else max(abs(a), abs(b))
                assert abs(a - b) <= 1e-14 * scale, (column, a, b)


COUPLE_WAVELENGTHS = ("1550", "780")


def _couple_column(wavelength: str) -> str:
    """The tilted-coupling column, named after the run's wavelength."""
    return f"eta_smf_{wavelength}"


def _couple_csv(wavelength: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["couple", "--wavelength", wavelength]) == 0
    return out.getvalue()


@pytest.mark.parametrize("wavelength", COUPLE_WAVELENGTHS)
def test_couple_matches_golden(wavelength):
    golden = _parse((GOLDEN_DIR / f"couple_{wavelength}.csv").read_text())
    float_columns = frozenset({_couple_column(wavelength)})
    moves = row_moves(golden, _parse(_couple_csv(wavelength)), float_columns)
    assert not moves, f"{len(moves)} cells outside tolerance: {moves[:10]}"


@pytest.mark.parametrize("wavelength", COUPLE_WAVELENGTHS)
def test_couple_stays_well_inside_tolerance_under_one_ulp_slope_noise(wavelength, monkeypatch):
    # the waist is the root of a slope that crosses zero steeply, so moving
    # every slope value by one ulp, up or down at random, must leave the
    # tilted column within a tenth of its tolerance of the golden
    golden = _parse((GOLDEN_DIR / f"couple_{wavelength}.csv").read_text())
    rng = random.Random(int(wavelength))
    stationarity = coupling._stationarity

    def noisy(*args):
        return math.nextafter(stationarity(*args), rng.choice((-math.inf, math.inf)))

    monkeypatch.setattr(coupling, "_stationarity", noisy)
    column = _couple_column(wavelength)
    for _ in range(5):
        rows = _parse(_couple_csv(wavelength))
        moves = [cell_move(column, g[column], r[column], {column}) for g, r in zip(golden, rows)]
        assert max(moves) <= 0.1


_CHAIN_HCF = ["chain", "--medium", "HCF", "--l0", "20", "--n", "2", "--m", "1024", "--eps-g", "1e-3"]
_WITH_ORACLE = ["--trace", "--oracle", "--trials", "20000"]

CLI_GOLDENS = {
    "chain_hcf.json": [*_CHAIN_HCF, *_WITH_ORACLE],
    # distills at levels 0-2, and every Monte-Carlo trial stays clean
    "chain_smf_distilling.json": [
        "chain", "--medium", "SMF", "--l0", "20", "--n", "3", "--m", "1024", "--f-th", "0.999",
        *_WITH_ORACLE,
    ],
    "chain_hcf.csv": [*_CHAIN_HCF, "--format", "csv"],
    # pi0 = 0: every burst resets at generation
    "chain_certain_reset.json": ["chain", "--eta-hardware", "0", "--n", "3"],
    "link_hcf.json": ["link", "--medium", "HCF", "--l0", "20"],
    # a single-wavelength medium has no conversion threshold
    "link_smf.csv": ["link", "--medium", "SMF", "--format", "csv"],
    "sweep_small.json": [
        "sweep", "--config", str(GOLDEN_DIR / "sweep_small_config.json"), "--format", "json",
    ],
}


def _run(name: str, out: pathlib.Path) -> str:
    assert cli.main([*CLI_GOLDENS[name], "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_command_matches_golden(name, tmp_path):
    assert _run(name, tmp_path / name) == (GOLDEN_DIR / name).read_text()


def test_chain_plans_its_schedule_once(monkeypatch, tmp_path):
    # the point, the trace and the oracle all come from one plan; count the
    # calls wherever the CLI could reach the two functions
    calls = []
    for name in ("build_schedule", "select_wavelength"):
        real = getattr(protocol, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        for module in (cli, protocol):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    text = _run("chain_hcf.json", tmp_path / "chain.json")
    assert calls == ["select_wavelength", "build_schedule"]
    assert text == (GOLDEN_DIR / "chain_hcf.json").read_text()


def write_goldens(names) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        if name in CLI_GOLDENS:
            _run(name, GOLDEN_DIR / name)
            print(f"{name}: written")
            continue
        path = GOLDEN_DIR / f"{name}.csv"
        if name.startswith("couple_"):
            path.write_text(_couple_csv(name.removeprefix("couple_")))
            print(f"{name}: written")
            continue
        text = rows_to_csv(run_sweep(GOLDEN_SPECS[name]()))
        if path.exists():
            moves = row_moves(_parse(path.read_text()), _parse(text))
            print(f"{name}: {len({i for i, _, _ in moves})} rows moved outside tolerance")
            if moves:
                i, column, move = max(moves, key=lambda m: m[2])
                print(f"  largest move: row {i} {column}, {move:.3g} times its tolerance")
        path.write_text(text)
        print(f"{name}: wrote {text.count(chr(10)) - 1} rows")


if __name__ == "__main__":
    write_goldens(sys.argv[1:] or sorted(GOLDEN_SPECS))
