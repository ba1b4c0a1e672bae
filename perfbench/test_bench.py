"""Tests of the benchmark itself: every output check can fail, names match.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from repeaterscope import cascade, channel, coupling, metrics, protocol, states, sweep

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL_SPEC = sweep.SweepSpec(
    media=("HCF", "SMF"),
    total_distance_km=(100.0, 300.0),
    conv_eff=(0.5,),
    eps_g=(1e-3,),
    n_range=(0, 1, 2, 3),
)


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------


def test_benchmark_json_workloads_are_runnable():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_end_to_end_names_and_units_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_per_layer_names_and_units_match_benchmark_json():
    assert tracing.per_layer_units() == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_sustained_rate_is_the_lower_quartile_of_the_round_rates():
    rates = [60.0, 62.0, 58.0, 61.0, 100.0, 105.0, 59.0, 63.0]
    assert run.sustained_rate(rates) == pytest.approx(59.25)
    assert run.sustained_rate([42.0]) == 42.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_csv() -> str:
    return sweep.rows_to_csv(sweep.run_sweep(SMALL_SPEC))


def _edit(text: str, row: int, **changes) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row].update({k: str(v) for k, v in changes.items()})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _row(text: str, i: int) -> dict:
    return list(csv.DictReader(io.StringIO(text)))[i]


def test_sweep_rows_pass_unperturbed(small_csv):
    assert checks.check_sweep_rows(SMALL_SPEC, small_csv) == []
    assert checks.check_depth_choice(SMALL_SPEC, small_csv, range(4)) == []


def test_flipped_wavelength_fails(small_csv):
    row = _row(small_csv, 0)
    flipped = 780 if row["wavelength_used_nm"] == "1550" else 1550
    bad = _edit(small_csv, 0, wavelength_used_nm=flipped)
    assert any("wavelength" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_shifted_threshold_fails(small_csv):
    thr = float(_row(small_csv, 0)["conv_eff_threshold"])
    bad = _edit(small_csv, 0, conv_eff_threshold=repr(thr * (1 + 1e-9)))
    assert any("threshold" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_threshold_on_smf_fails(small_csv):
    bad = _edit(small_csv, 2, conv_eff_threshold="0.5")
    assert any("threshold" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_spacing_identity_fails(small_csv):
    l0 = float(_row(small_csv, 1)["best_l0_km"])
    bad = _edit(small_csv, 1, best_l0_km=repr(l0 * 1.5))
    assert any("2**best_n" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_completion_above_one_fails(small_csv):
    bad = _edit(small_csv, 1, completion_prob="1.0000001")
    assert any("completion_prob" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_skr_above_link_bound_fails(small_csv):
    r = _row(small_csv, 0)
    pi0 = checks.link_pi0("HCF", int(r["wavelength_used_nm"]), 1.0, 0.5, float(r["best_l0_km"]))
    bad = _edit(small_csv, 0, skr_pcu=repr(pi0 / 2 ** int(r["best_n"]) * 1.001))
    assert any("skr_pcu" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_infinite_ops_with_key_fails(small_csv):
    bad = _edit(small_csv, 0, ops_per_secret_bit="inf")
    assert any("ops_per_secret_bit" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_reordered_rows_fail(small_csv):
    lines = small_csv.splitlines(keepends=True)
    bad = lines[0] + lines[2] + lines[1] + "".join(lines[3:])
    assert any("walk the grid" in f for f in checks.check_sweep_rows(SMALL_SPEC, bad))


def test_worse_depth_choice_fails(small_csv):
    r = _row(small_csv, 1)
    n = int(r["best_n"])
    other = 0 if n else 1
    point = protocol.evaluate_chain(
        protocol.ProtocolConfig(
            medium=channel.default_media()[r["medium"]],
            budget=channel.LinkBudget(1.0, 0.5, float(r["total_distance_km"]) / 2**other),
            noise=states.NoiseParams(1e-3, t2=1.0),
            n=other,
            m=SMALL_SPEC.m,
        )
    )
    bad = _edit(small_csv, 1, best_n=other, skr_pcu=repr(point.skr_pcu))
    assert any("beat" in f for f in checks.check_depth_choice(SMALL_SPEC, bad, [1]))


def test_threaded_csv_differing_from_serial_fails(small_csv):
    item = workloads.SweepInput(SMALL_SPEC, threads=2, check_rows=(0,))
    assert checks.check_round([item], [small_csv], seed=1) == []
    bad = small_csv.replace("\n", "\r\n", 1)
    assert any("serial" in f for f in checks.check_round([item], [bad], seed=1))


# ---------------------------------------------------------------------------
# single chains
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chains():
    items = workloads.chain_inputs(5)
    return items, [protocol.evaluate_chain(item.config) for item in items]


def _first(chains, predicate):
    items, points = chains
    return next((it, pt) for it, pt in zip(items, points) if predicate(it, pt))


def test_chain_checks_pass_unperturbed(chains):
    items, points = chains
    assert [f for it, pt in zip(items, points) for f in checks.check_chain(it, pt)] == []


def test_plain_completion_off_by_1e6_fails(chains):
    item, point = _first(chains, lambda it, pt: not it.distills and it.config.n == 3)
    bad = dataclasses.replace(point, completion_prob=point.completion_prob * (1 + 1e-6))
    assert any("completion_prob" in f for f in checks.check_chain(item, bad))


def test_plain_end_pairs_off_by_1e6_fails(chains):
    item, point = _first(chains, lambda it, pt: not it.distills and it.config.n == 5)
    bad = dataclasses.replace(point, expected_end_pairs=point.expected_end_pairs * (1 + 1e-6))
    assert any("expected_end_pairs" in f for f in checks.check_chain(item, bad))


def test_single_link_key_rate_off_fails(chains):
    item, point = _first(chains, lambda it, pt: it.config.n == 0 and pt.skr_pcu > 0)
    bad = dataclasses.replace(point, skr_pcu=point.skr_pcu * (1 + 1e-6))
    assert any("key fraction" in f for f in checks.check_chain(item, bad))


def test_chain_flipped_wavelength_fails(chains):
    item, point = _first(chains, lambda it, pt: it.config.medium.name == "SMF")
    bad = dataclasses.replace(point, wavelength_used_nm=780)
    assert any("wavelength" in f for f in checks.check_chain(item, bad))


def test_chain_key_rate_above_link_bound_fails(chains):
    item, point = _first(chains, lambda it, pt: it.distills and pt.skr_pcu > 0)
    pi0 = max(checks._chain_pi0(item.config).values())
    bad = dataclasses.replace(point, skr_pcu=2 * pi0 / 2**item.config.n)
    assert any("skr_pcu" in f for f in checks.check_chain(item, bad))


def test_distilling_chain_against_monte_carlo(chains):
    items, points = chains
    i = checks.oracle_sample(items, seed=5)[0]
    item, point = items[i], points[i]
    assert checks.check_chain_oracle(item, point, seed=5) == []
    off = dataclasses.replace(point, completion_prob=point.completion_prob * 0.9)
    assert any("completion" in f for f in checks.check_chain_oracle(item, off, seed=5))
    more = dataclasses.replace(point, expected_end_pairs=point.expected_end_pairs * 1.05)
    assert any("end pairs" in f for f in checks.check_chain_oracle(item, more, seed=5))


# ---------------------------------------------------------------------------
# facet coupling
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def facet():
    item = workloads.facet_inputs(3)[2]  # the first seeded fiber
    return item, workloads.facet_operation(item).run()


def _facet_failures(item, scan):
    return checks.check_facet(item, scan, workloads.FACET_THETAS)


def test_facet_checks_pass_unperturbed(facet):
    assert _facet_failures(*facet) == []


def test_every_facet_round_holds_the_couple_fibers():
    for seed in (1, 2):
        items = workloads.facet_inputs(seed)
        assert len(items) == workloads.FACET_GEOMETRIES + 2
        for item, wavelength in zip(items, workloads.FACET_WAVELENGTHS_NM):
            assert item.fiber == coupling.near_cutoff_smf(wavelength)
            assert item.wavelength_nm == wavelength


@pytest.mark.parametrize("wavelength", workloads.FACET_WAVELENGTHS_NM)
def test_near_cutoff_fiber_passes_and_a_moved_root_fails(wavelength):
    item = next(it for it in workloads.facet_inputs(1) if it.wavelength_nm == wavelength)
    assert item.fiber == coupling.near_cutoff_smf(wavelength)
    scan = workloads.facet_operation(item).run()
    assert _facet_failures(item, scan) == []
    u = scan.mode.u * (1 + 1e-7)
    mode = dataclasses.replace(scan.mode, u=u, w=math.sqrt(scan.mode.v**2 - u**2))
    assert any("residual" in f for f in _facet_failures(item, dataclasses.replace(scan, mode=mode)))


def test_mode_root_accepts_a_sign_change_within_a_few_float_steps(monkeypatch):
    # a mismatch so steep that no float lands within 1e-9 of zero
    root = 1.6465280900283574
    monkeypatch.setattr(checks, "lp01_mismatch", lambda u, v: (u - root) * 1e20)
    assert checks.is_mode_root(math.nextafter(root, 3.0), 2.4)
    assert not checks.is_mode_root(root + 10 * math.ulp(root), 2.4)


def test_facet_flipped_wavelength_fails(facet):
    item, scan = facet
    other = 780.0 if item.wavelength_nm == 1550.0 else 1550.0
    flipped = dataclasses.replace(item, wavelength_nm=other)
    assert any("Marcuse" in f for f in _facet_failures(flipped, scan))


def test_facet_mode_residual_fails(facet):
    item, scan = facet
    u = scan.mode.u * (1 + 1e-6)
    mode = dataclasses.replace(scan.mode, u=u, w=math.sqrt(scan.mode.v**2 - u**2))
    assert any("residual" in f for f in _facet_failures(item, dataclasses.replace(scan, mode=mode)))


def test_facet_efficiency_above_one_fails(facet):
    item, scan = facet
    etas = (1.01,) + scan.eta_tilted[1:]
    assert any("outside" in f for f in _facet_failures(item, dataclasses.replace(scan, eta_tilted=etas)))


def test_facet_efficiency_rising_with_tilt_fails(facet):
    item, scan = facet
    etas = list(scan.eta_tilted)
    etas[-1] = etas[-2] * (1 + 1e-9)
    assert any("rises" in f for f in _facet_failures(item, dataclasses.replace(scan, eta_tilted=tuple(etas))))


def test_facet_wrong_fresnel_factor_fails(facet):
    item, scan = facet
    flipped = dataclasses.replace(item, fiber=dataclasses.replace(item.fiber, ar_coated=not item.fiber.ar_coated))
    assert any("facet transmission" in f for f in _facet_failures(flipped, scan))


def test_facet_zero_tilt_identity_fails(facet):
    item, scan = facet
    etas = (scan.eta_tilted[0] * (1 - 1e-12),) + scan.eta_tilted[1:]
    assert any("overlap_eta" in f for f in _facet_failures(item, dataclasses.replace(scan, eta_tilted=etas)))


# ---------------------------------------------------------------------------
# tracing and the command
# ---------------------------------------------------------------------------


def test_tracer_rebinds_every_binding_and_restores_it():
    originals = (cascade.pair_minimum, metrics.pair_minimum, protocol.run_cascade)
    item = next(c for c in workloads.chain_inputs(5) if c.distills and c.config.m == 16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert metrics.pair_minimum is cascade.pair_minimum is not originals[0]
        assert protocol.run_cascade is not originals[2]
        protocol.evaluate_chain(item.config)
    finally:
        tracer.uninstall()
    assert (cascade.pair_minimum, metrics.pair_minimum, protocol.run_cascade) == originals
    summary = tracer.summary(rounds=1)
    assert summary["protocol.evaluate_chain.calls"] == 1
    assert summary["cascade.run_cascade.calls"] == 1
    assert summary["metrics.ops_per_burst.calls"] == 1
    assert summary[tracing.CONSTRUCTIONS] > 0
    total = sum(end - start for _, index, start, end, _ in tracer.spans
                if tracing.SPAN_NAMES[index] == "protocol.evaluate_chain")
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_ms")) / 1e3
    assert self_total == pytest.approx(total, rel=1e-9)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "fig5_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
