"""Golden outputs: the figure presets regenerate their committed CSVs.

Each preset in ``GOLDEN_SPECS`` is swept and compared row by row with
``tests/golden/<name>.csv``: exactly on every column that is not a float
(``medium``, ``m``, ``wavelength_used_nm``, ``best_n``), to a relative
1e-12 on the float columns, and to an absolute 1e-15 on ``mass_defect``,
which is the cancelling difference ``1 - scaled_total``.

Run ``PYTHONPATH=src python tests/test_goldens.py [name ...]`` to write a
missing golden file, or, for a change that is meant to move outputs, to
rewrite only the rows that fall outside these tolerances; it prints how many
rows moved per preset and the largest move.  A name from ``CLI_GOLDENS``
rewrites that file whole.

``couple_<wavelength>.csv`` hold the output of ``repeaterscope couple
--wavelength <wavelength>`` at its default 26 tilt angles; the angle and the
HCF constant must match exactly, ``eta_smf_1550`` to a relative 1e-12.

``CLI_GOLDENS`` maps the other golden files to the ``repeaterscope``
arguments that write them: ``link``, ``chain`` (with ``--trace --oracle``,
in CSV, and at a certain reset) and a small ``sweep`` in JSON, whose config
is ``sweep_small_config.json``.  Each must match byte for byte.
"""

import csv
import dataclasses
import io
import math
import pathlib
import sys

import pytest

from repeaterscope import cli, protocol
from repeaterscope.sweep import SweepRow, figure_preset, rows_to_csv, run_sweep

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


def cell_move(column: str, golden: str, value: str) -> float:
    """How far ``value`` sits from ``golden``, in units of the tolerance.

    A result above 1 is outside the tolerance.
    """
    if column not in FLOAT_COLUMNS:
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


def row_moves(golden: list[dict[str, str]], rows: list[dict[str, str]]) -> list[tuple[int, str, float]]:
    """(row index, column, move) of every cell outside its tolerance."""
    assert len(golden) == len(rows), f"{len(rows)} rows against {len(golden)} golden rows"
    out = []
    for i, (g, r) in enumerate(zip(golden, rows)):
        assert list(g) == list(r), f"row {i}: columns {list(r)} != {list(g)}"
        for column in g:
            move = cell_move(column, g[column], r[column])
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


@pytest.mark.parametrize("wavelength", ["1550", "780"])
def test_couple_matches_golden(wavelength, tmp_path):
    out = tmp_path / "couple.csv"
    assert cli.main(["couple", "--wavelength", wavelength, "--out", str(out)]) == 0
    golden = _parse((GOLDEN_DIR / f"couple_{wavelength}.csv").read_text())
    rows = _parse(out.read_text())
    assert len(rows) == len(golden)
    for g, r in zip(golden, rows):
        assert list(r) == list(g)
        assert (r["theta_rad"], r["eta_constants_hcf"]) == (g["theta_rad"], g["eta_constants_hcf"])
        assert float(r["eta_smf_1550"]) == pytest.approx(float(g["eta_smf_1550"]), rel=REL_TOL, abs=0.0)


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
        text = rows_to_csv(run_sweep(GOLDEN_SPECS[name]()))
        if not path.exists():
            path.write_text(text)
            print(f"{name}: wrote {text.count(chr(10)) - 1} rows")
            continue
        old_lines = path.read_text().splitlines()
        new_lines = text.splitlines()
        moves = row_moves(_parse(path.read_text()), _parse(text))
        moved = sorted({i for i, _, _ in moves})
        for i in moved:
            old_lines[i + 1] = new_lines[i + 1]
        path.write_text("\n".join(old_lines) + "\n")
        print(f"{name}: {len(moved)} rows rewritten")
        if moves:
            i, column, move = max(moves, key=lambda m: m[2])
            print(f"  largest move: row {i} {column}, {move:.3g} times its tolerance")


if __name__ == "__main__":
    write_goldens(sys.argv[1:] or sorted(GOLDEN_SPECS))
