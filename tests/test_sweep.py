import collections
import dataclasses
import itertools
import json
import math
import subprocess
import sys

import pytest

from repeaterscope import cli, protocol, sweep
from repeaterscope.cascade import CascadeConfig, InvariantError
from repeaterscope.channel import (
    DEFAULT_SIGNAL_VELOCITY,
    ConfigurationError,
    LinkBudget,
    default_media,
    hcf_profile,
    smf_profile,
)
from repeaterscope.protocol import ProtocolConfig, evaluate_chain
from repeaterscope.states import NoiseParams
from repeaterscope.sweep import (
    SweepSpec,
    figure_preset,
    load_config,
    rows_to_csv,
    run_sweep,
    spec_from_dict,
)

from conftest import plan_of


def small_spec(**overrides):
    base = dict(
        media=("HCF", "SMF"),
        total_distance_km=(100.0, 200.0),
        conv_eff=(0.5,),
        eps_g=(1e-3,),
        m=64,
        n_range=(0, 1, 2, 3),
    )
    base.update(overrides)
    return SweepSpec(**base)


def optimize_depth(
    total_distance_km, medium, conv_eff, eta_hardware, t2_s, eps_g,
    f_th=0.95, m=1024, n_range=sweep.DEFAULT_N_RANGE,
):
    """``(best_n, best_l0, point)`` of one grid point, as the sweep finds it:
    the depth scan over a single group of one point."""
    depths = sweep._group_depths(
        [(medium, conv_eff, eta_hardware)], total_distance_km, t2_s, eps_g, f_th, m, n_range
    )
    point = sweep._scan_depths([depths])[0][0]
    return point.n, point.l0_km, point


class TestOptimizeDepth:
    def test_single_depth(self):
        n, l0, point = optimize_depth(
            80.0, hcf_profile(), 0.5, 1.0, 1.0, 1e-3, m=16, n_range=(0,)
        )
        assert n == 0
        assert l0 == 80.0

    def test_spacing_identity(self):
        n, l0, _ = optimize_depth(
            240.0, hcf_profile(), 0.5, 1.0, 1.0, 1e-3, m=64, n_range=(0, 1, 2, 3)
        )
        assert l0 * (1 << n) == pytest.approx(240.0, abs=1e-12)

    def test_noiseless_pure_loss_prefers_max_depth(self):
        n, _, _ = optimize_depth(
            10_000.0,
            smf_profile(),
            1.0,
            1.0,
            math.inf,
            0.0,
            m=16,
            n_range=(0, 1, 2, 3, 4),
        )
        assert n == 4

    def test_all_zero_returns_flagged_point(self):
        n, l0, point = optimize_depth(
            100.0, hcf_profile(), 0.5, 0.0, 1.0, 1e-3, m=8, n_range=(0, 1)
        )
        assert point.skr_pcu == 0.0
        assert point.diagnostic is not None

    def test_nan_rate_raises_instead_of_losing_every_comparison(self, monkeypatch):
        monkeypatch.setattr(protocol, "key_fraction", lambda state: math.nan)
        with pytest.raises(InvariantError, match="NaN"):
            optimize_depth(100.0, hcf_profile(), 0.5, 1.0, 1.0, 1e-3, m=16, n_range=(0, 1))

    def test_hcf_supports_wider_spacing_at_500km(self):
        besth = optimize_depth(500.0, hcf_profile(), 0.5, 1.0, 1.0, 1e-3, m=1024)
        bests = optimize_depth(500.0, smf_profile(), 0.5, 1.0, 1.0, 1e-3, m=1024)
        assert besth[1] >= bests[1]


class TestRunSweep:
    def test_single_point_matches_direct_evaluation(self):
        spec = SweepSpec(
            media=("HCF",),
            total_distance_km=(120.0,),
            conv_eff=(0.5,),
            eps_g=(1e-3,),
            m=32,
            n_range=(2,),
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        n, l0, point = optimize_depth(
            120.0, hcf_profile(), 0.5, 1.0, 1.0, 1e-3, m=32, n_range=(2,)
        )
        assert row.skr_pcu == point.skr_pcu
        assert row.best_n == 2
        assert row.best_l0_km == pytest.approx(30.0)

    def test_row_count_and_order(self):
        rows = run_sweep(small_spec())
        assert len(rows) == 4
        assert [r.medium for r in rows] == ["HCF", "HCF", "SMF", "SMF"]
        assert [r.total_distance_km for r in rows] == [100.0, 200.0, 100.0, 200.0]

    def test_csv_deterministic_and_parallel_invariant(self):
        spec = small_spec()
        rows_serial = run_sweep(spec, threads=1)
        rows_parallel = run_sweep(spec, threads=4)
        assert rows_to_csv(rows_serial) == rows_to_csv(rows_parallel)

    def test_header_matches_row_fields(self):
        rows = run_sweep(small_spec(media=("HCF",), total_distance_km=(100.0,)))
        header = rows_to_csv(rows).splitlines()[0]
        assert header.split(",") == [
            "medium", "total_distance_km", "conv_eff", "eta_hardware", "t2_s",
            "eps_g", "f_th", "m", "wavelength_used_nm", "best_n", "best_l0_km",
            "skr_pcu", "completion_prob", "ops_per_secret_bit",
            "gate_ops_per_burst", "measurement_ops_per_burst", "mass_defect",
            "conv_eff_threshold",
        ]

    def test_unknown_medium_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(small_spec(media=("XYZ",)))

    def test_output_path_is_left_to_the_cli(self, tmp_path):
        target = tmp_path / "rows.csv"
        rows = run_sweep(small_spec(output_path=str(target)))
        assert len(rows) == 4
        assert not target.exists()


def chain_config(medium, dist, conv, eta_hw, t2, eps, n, m=1024, f_th=0.95):
    return ProtocolConfig(
        medium=medium,
        budget=LinkBudget(eta_hardware=eta_hw, conv_eff=conv, l0_km=dist / (1 << n)),
        noise=NoiseParams(eps, t2=t2),
        n=n,
        m=m,
        f_th=f_th,
    )


class TestFidelityThreshold:
    def test_sweep_runs_at_the_configured_threshold(self):
        # SMF, 600 km, conv_eff 0.5, eps_g 1e-2: the best depth is n=2 at
        # f_th 0.5 and n=3 at 0.95
        spec = SweepSpec(
            media=("SMF",), total_distance_km=(600.0,), conv_eff=(0.5,), eps_g=(1e-2,), f_th=0.5
        )
        low = run_sweep(spec)[0]
        high = run_sweep(dataclasses.replace(spec, f_th=0.95))[0]
        by_depth = {
            n: evaluate_chain(chain_config(smf_profile(), 600.0, 0.5, 1.0, 1.0, 1e-2, n, f_th=0.5)).skr_pcu
            for n in spec.n_range
        }
        best_n = max(by_depth, key=lambda n: (by_depth[n], -n))
        assert (low.best_n, low.skr_pcu) == (best_n, by_depth[best_n])
        assert (low.best_n, high.best_n) == (2, 3)
        assert low.skr_pcu != high.skr_pcu


class TestBatchedRowsMatchSingleChains:
    """Batched evaluation gives each point exactly what ``evaluate_chain`` gives it."""

    def test_fig5_rows_match_evaluate_chain(self):
        spec = figure_preset("fig5")
        rows = run_sweep(spec)
        media = {"HCF": hcf_profile(), "SMF": smf_profile()}
        for row in rows[::53]:
            by_depth = {
                n: evaluate_chain(
                    chain_config(media[row.medium], row.total_distance_km, row.conv_eff,
                                 row.eta_hardware, row.t2_s, row.eps_g, n)
                )
                for n in spec.n_range
            }
            point = by_depth[row.best_n]
            assert row.skr_pcu == point.skr_pcu
            assert row.completion_prob == point.completion_prob
            assert row.gate_ops_per_burst == point.ops.two_qubit_gates
            assert row.measurement_ops_per_burst == point.ops.measurements
            assert row.mass_defect == point.mass_defect
            assert row.wavelength_used_nm == point.wavelength_used_nm
            assert all(
                p.skr_pcu < row.skr_pcu or (p.skr_pcu == row.skr_pcu and n >= row.best_n)
                for n, p in by_depth.items()
            )

    @pytest.mark.parametrize(
        "preset,dist,eps,n,diagnostic",
        [
            ("fig5", 400.0, 1e-3, 8, False),  # distills at levels 5 and 6
            ("fig6", 100.0, 1e-4, 10, True),  # distills; certain reset at eta_hardware 0.1
        ],
    )
    def test_batched_depth_matches_evaluate_chain(self, preset, dist, eps, n, diagnostic):
        spec = figure_preset(preset)
        media = {"HCF": hcf_profile(), "SMF": smf_profile()}
        configs = [
            chain_config(media[name], dist, conv, eta_hw, 1.0, eps, n)
            for name in spec.media
            for conv in spec.conv_eff
            for eta_hw in spec.eta_hardware
        ]
        assert any(protocol.build_schedule(configs[0]).distill_flags)
        batched = plan_of(configs).evaluate(range(len(configs)), {})
        assert batched == [evaluate_chain(c) for c in configs]
        assert any(p.diagnostic for p in batched) == diagnostic
        assert not all(p.diagnostic for p in batched)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        payload = {
            "media": ["HCF"],
            "total_distance_km": [50.0, 100.0],
            "conv_eff": [0.5],
            "eps_g": [0.001],
            "m": 32,
            "n_range": [0, 1],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec, profiles = load_config(str(path))
        assert spec.total_distance_km == (50.0, 100.0)
        assert profiles == {}

    def test_media_profile_override(self, tmp_path):
        payload = {
            "media": ["CUSTOM"],
            "total_distance_km": [50.0],
            "media_profiles": {
                "CUSTOM": {
                    "att_length_km": {"1550": 40.0},
                    "coupling_mem_fiber": 0.9,
                }
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec, profiles = load_config(str(path))
        assert profiles["CUSTOM"].signal_velocity_kms == DEFAULT_SIGNAL_VELOCITY
        rows = run_sweep(spec, profiles)
        assert rows[0].medium == "CUSTOM"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"media": ["HCF"], "bogus": 1})


class TestFigurePresets:
    def test_known_names(self):
        for name in ("fig3", "fig5", "fig6", "fig7", "fig8", "skr_curves"):
            spec = figure_preset(name)
            assert spec.f_th == 0.95
            assert spec.m == 1024

    def test_fig3_is_single_link(self):
        assert figure_preset("fig3").n_range == (0,)

    def test_fig8_rows(self):
        assert figure_preset("fig8").conv_eff == (0.5, 1.0)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            figure_preset("fig99")


def grid_groups(spec):
    """The sweep's grid keys in row order, and their groups by signal
    velocity, distance, T2 and gate error."""
    media = default_media()
    keys = list(itertools.product(
        spec.media, spec.total_distance_km, spec.conv_eff, spec.eta_hardware, spec.t2_s, spec.eps_g
    ))
    groups = {}
    for key in keys:
        name, dist, _, _, t2, eps = key
        groups.setdefault((media[name].signal_velocity_kms, dist, t2, eps), []).append(key)
    return media, keys, groups


def full_scan(spec):
    """The rows of an ascending scan over every depth of ``spec.n_range``,
    built from ``ChainPlan.evaluate`` alone, with a config per point: ties
    keep the smaller n."""
    media, keys, groups = grid_groups(spec)
    best = {}
    for (_, dist, t2, eps), members in groups.items():
        for n in sorted(spec.n_range):
            l0 = dist / (1 << n)
            configs = [
                ProtocolConfig(
                    medium=media[name],
                    budget=LinkBudget(eta_hardware=eta_hw, conv_eff=conv, l0_km=l0),
                    noise=NoiseParams(eps, t2=t2),
                    n=n,
                    m=spec.m,
                    f_th=spec.f_th,
                )
                for name, _, conv, eta_hw, _, _ in members
            ]
            for key, point in zip(members, plan_of(configs).evaluate(range(len(configs)), {})):
                if key not in best or point.skr_pcu > best[key].skr_pcu:
                    best[key] = point
    return [sweep._sweep_row(spec, media[key[0]], key, best[key]) for key in keys]


def eager_best_depths(points, total_distance_km, t2_s, eps_g, f_th, m, n_range, outcomes):
    """The reference depth scan of one group: plan every depth (building its
    schedule), then scan depths by descending SKR bound ``(-bound, n)``, and
    evaluate a point at a depth only while its bound can still win."""
    noise = NoiseParams(eps_g, t2=t2_s)
    scan = []
    for n in n_range:
        l0 = math.ldexp(total_distance_km, -n)
        plan = plan_of([
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
        bounds = protocol.skr_bounds(plan.config, plan.choices, plan.key)
        top = max(math.inf if math.isnan(b) else b for b in bounds)
        scan.append((-top, n, plan, bounds))
    scan.sort(key=lambda entry: entry[:2])
    best = [None] * len(points)
    for _, n, plan, bounds in scan:
        live = [
            i for i, bound in enumerate(bounds)
            if sweep._wins(bound * sweep._BOUND_SLACK, n, best[i])
        ]
        if not live:
            continue
        for i, point in zip(live, plan.evaluate(live, outcomes)):
            if math.isnan(point.skr_pcu):
                raise InvariantError(f"skr_pcu is NaN at n={n}")
            if sweep._wins(point.skr_pcu, n, best[i]):
                best[i] = point
    return best


def eager_sweep(spec):
    """The rows of ``spec`` with each group scanned on its own by
    ``eager_best_depths``."""
    media, keys, groups = grid_groups(spec)
    best, outcomes = {}, {}
    for (_, dist, t2, eps), members in groups.items():
        points = [(media[name], conv, eta_hw) for name, _, conv, eta_hw, _, _ in members]
        found = eager_best_depths(points, dist, t2, eps, spec.f_th, spec.m, spec.n_range, outcomes)
        best.update(zip(members, found))
    return [sweep._sweep_row(spec, media[key[0]], key, best[key]) for key in keys]


def record_point_depths(monkeypatch):
    """Patch ``ChainPlan.evaluate`` to count each point-depth it evaluates:
    a point is its place in the plan of its group, which the plan's config
    (its first point's) names, and the key ends in the depth."""
    seen = collections.Counter()
    real = protocol.ChainPlan.evaluate

    def evaluate(plan, rows, outcomes):
        c = plan.config
        for b in rows:
            seen[(c.medium.name, c.budget, c.noise, b, c.n)] += 1
        return real(plan, rows, outcomes)

    monkeypatch.setattr(protocol.ChainPlan, "evaluate", evaluate)
    return seen


class TestPrunedDepthScan:
    """The sweep skips depths whose SKR bound cannot win, and builds a
    depth's schedule only once its schedule-free bound can win; its rows must
    be those of the full scan, byte for byte, and it must evaluate the
    point-depths of the eager per-group scan (``eager_best_depths``)."""

    @pytest.mark.parametrize(
        "name",
        # the full skr_curves scan alone takes about 6 s: run it with -m slow
        ["fig3", "fig5", "fig6", "fig8", pytest.param("skr_curves", marks=pytest.mark.slow)],
    )
    def test_rows_equal_the_full_scan(self, name):
        spec = figure_preset(name)
        pruned = run_sweep(spec)
        full = full_scan(spec)
        assert [r.best_n for r in pruned] == [r.best_n for r in full]
        assert [r.wavelength_used_nm for r in pruned] == [r.wavelength_used_nm for r in full]
        assert rows_to_csv(pruned) == rows_to_csv(full)

    @pytest.mark.parametrize(
        "name,evaluated",
        [
            ("fig3", 1000),
            ("fig5", 457),
            ("fig6", 864),
            ("fig8", 422),
            pytest.param("skr_curves", 2442, marks=pytest.mark.slow),
        ],
    )
    def test_evaluates_the_point_depths_of_the_eager_scan(self, monkeypatch, name, evaluated):
        spec = figure_preset(name)
        seen = record_point_depths(monkeypatch)
        rows = run_sweep(spec)
        shared = collections.Counter(seen)
        seen.clear()
        eager = eager_sweep(spec)
        assert shared == seen
        assert max(seen.values()) == 1
        assert sum(seen.values()) == evaluated
        assert rows_to_csv(rows) == rows_to_csv(eager)

    def test_fig5_skips_most_batched_recursions(self, monkeypatch):
        # 20 groups x 11 depths: a scan that plans every depth builds 220
        # schedules, and the eager per-group scan runs its 256 rows in 56
        # batched calls
        calls, schedules = [], []
        real_batch, real_schedule = protocol.run_cascade_batch, protocol.build_schedule
        monkeypatch.setattr(
            protocol,
            "run_cascade_batch",
            lambda schedule, pi0: calls.append([(schedule, p) for p in pi0])
            or real_batch(schedule, pi0),
        )
        monkeypatch.setattr(
            sweep, "build_schedule", lambda c: schedules.append(c.n) or real_schedule(c)
        )
        run_sweep(figure_preset("fig5"))
        rows = [row for call in calls for row in call]
        print(f"fig5: {len(schedules)} schedules, {len(calls)} batched calls, {len(rows)} rows")
        assert len(schedules) == 104
        assert len(calls) <= 34
        assert len(rows) == 256
        # a row is the same whatever batch runs it, so the sweep runs each once
        assert len(set(rows)) == len(rows)

    def test_fig3_batches_are_bounded(self, monkeypatch):
        # all 921 fig3 rows share the n = 0 schedule; they run in chunks
        sizes = []
        real = protocol.run_cascade_batch
        monkeypatch.setattr(
            protocol,
            "run_cascade_batch",
            lambda schedule, pi0: sizes.append(len(pi0)) or real(schedule, pi0),
        )
        run_sweep(figure_preset("fig3"))
        assert sum(sizes) == 921
        assert max(sizes) == protocol._BATCH_ROWS
        assert len(sizes) == -(-921 // protocol._BATCH_ROWS)

    def test_fig5_builds_no_cascade_config(self, monkeypatch):
        # the rows of a batch share one CascadeSchedule per evaluation; no
        # per-row CascadeConfig revalidates it
        built = []
        check = CascadeConfig.__post_init__
        monkeypatch.setattr(CascadeConfig, "__post_init__", lambda c: built.append(c) or check(c))
        run_sweep(figure_preset("fig5"))
        assert built == []
        CascadeConfig(n=0, m=1, pi0=0.5)  # the hook sees a config that is built
        assert len(built) == 1

    def test_fig5_builds_one_protocol_config_per_group_depth(self, monkeypatch):
        # 20 groups x 11 depths; the points of a group share their depth's
        # config, so the 160 points x 11 depths build no config of their own
        built = []
        check = ProtocolConfig.__post_init__
        monkeypatch.setattr(ProtocolConfig, "__post_init__", lambda c: built.append(c) or check(c))
        run_sweep(figure_preset("fig5"))
        assert len(built) == 220
        assert len({(c.budget.l0_km, c.noise, c.n) for c in built}) == 220

    def test_only_a_larger_bound_or_a_tie_at_smaller_n_can_win(self):
        point = optimize_depth(80.0, hcf_profile(), 0.5, 1.0, 1.0, 1e-3, m=16, n_range=(0,))[2]

        def held(skr):
            return dataclasses.replace(point, skr_pcu=skr, n=3, l0_km=10.0)

        def can_win(bound, n, best):
            # the scan's prune test: the one win rule on the widened bound
            return sweep._wins(bound * sweep._BOUND_SLACK, n, best)

        assert can_win(1.0, 4, held(1.0))  # within the rounding slack
        assert not can_win(1.0 - 1e-11, 4, held(1.0))
        assert not can_win(0.99, 2, held(1.0))
        assert can_win(0.0, 2, held(0.0))
        assert not can_win(0.0, 4, held(0.0))
        assert can_win(math.nan, 4, held(1.0))
        assert can_win(0.0, 4, None)

    def test_zero_rates_keep_the_smallest_depth(self, monkeypatch):
        # every rate is 0; looser bounds that grow with n, with the key
        # fraction or without it, make the scan start at the deepest depth,
        # and the tie must still go to n = 0
        monkeypatch.setattr(
            sweep,
            "skr_bounds",
            lambda config, choices, key: [1.0 + config.n] * len(choices),
        )
        seen = record_point_depths(monkeypatch)
        n, _, point = optimize_depth(
            100.0, hcf_profile(), 0.5, 0.0, 1.0, 1e-3, m=8, n_range=(3, 0, 1, 2)
        )
        assert (n, point.skr_pcu) == (0, 0.0)
        assert [depth for *_, depth in seen] == [3, 2, 1, 0]


class TestCli:
    """``cli.main`` in-process; one test runs ``python -m repeaterscope.cli``
    to cover the exit status of the module entry point."""

    def run_cli(self, capsys, *args) -> tuple[int, str]:
        code = cli.main(list(args))
        return code, capsys.readouterr().out

    def test_link_json(self, capsys):
        code, out = self.run_cli(capsys, "link", "--medium", "HCF", "--l0", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["wavelength_nm"] == 780

    def test_chain_json(self, capsys):
        code, out = self.run_cli(
            capsys, "chain", "--medium", "SMF", "--l0", "25", "--n", "1", "--m", "8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["wavelength_used_nm"] == 1550
        assert payload["skr_pcu"] > 0

    def test_unknown_medium_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repeaterscope.cli", "link", "--medium", "COAX"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = self.run_cli(capsys, "sweep", "--config", str(bad))
        assert code == 2

    def test_sweep_csv_roundtrip(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(
            json.dumps(
                {
                    "media": ["HCF"],
                    "total_distance_km": [80.0],
                    "conv_eff": [0.5],
                    "eps_g": [0.001],
                    "m": 16,
                    "n_range": [0, 1],
                }
            )
        )
        out = tmp_path / "rows.csv"
        code, _ = self.run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("medium,")
        assert len(lines) == 2

    def test_sweep_writes_to_the_config_output_path(self, tmp_path, capsys):
        raw = {
            "media": ["HCF", "SMF"],
            "total_distance_km": [80.0, 160.0],
            "conv_eff": [0.5],
            "eps_g": [0.001],
            "m": 16,
            "n_range": [0, 1, 2],
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(raw))
        via_out = tmp_path / "out.csv"
        assert self.run_cli(capsys, "sweep", "--config", str(config), "--out", str(via_out))[0] == 0
        via_config = tmp_path / "config.csv"
        config.write_text(json.dumps({**raw, "output_path": str(via_config)}))
        code, out = self.run_cli(capsys, "sweep", "--config", str(config))
        assert code == 0
        assert out == ""
        assert via_config.read_bytes() == via_out.read_bytes()

    def test_sweep_writes_the_rows_of_its_config(self, tmp_path, capsys):
        raw = {
            "media": ["HCF", "SMF", "X"],
            "total_distance_km": [80.0, 400.0],
            "conv_eff": [0.3, 0.5],
            "eps_g": [0.001],
            "m": 64,
            "n_range": [0, 1, 2],
            "media_profiles": {"X": {"att_length_km": {"1550": 30.0}, "coupling_mem_fiber": 0.5}},
        }
        config, out = tmp_path / "spec.json", tmp_path / "rows.csv"
        config.write_text(json.dumps(raw))
        assert self.run_cli(capsys, "sweep", "--config", str(config), "--out", str(out)) == (0, "")
        spec, profiles = sweep.load_config(str(config))
        assert out.read_bytes() == rows_to_csv(run_sweep(spec, profiles)).encode()

    def test_figure_writes_the_preset_rows(self, tmp_path, capsys):
        fig3 = tmp_path / "fig3.csv"
        assert self.run_cli(capsys, "figure", "fig3", "--out", str(fig3)) == (0, "")
        assert fig3.read_bytes() == rows_to_csv(run_sweep(figure_preset("fig3"))).encode()
        # fig7 is the fig5 grid under another name
        fig5, fig7 = tmp_path / "fig5.csv", tmp_path / "fig7.csv"
        assert self.run_cli(capsys, "figure", "fig5", "--out", str(fig5))[0] == 0
        assert self.run_cli(capsys, "figure", "fig7", "--out", str(fig7))[0] == 0
        assert fig7.read_bytes() == fig5.read_bytes()

    def test_couple_csv(self, capsys):
        code, out = self.run_cli(capsys, "couple", "--points", "3", "--theta-max", "0.03")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta_rad,eta_smf_1550,eta_constants_hcf"
        assert len(lines) == 4
