"""Every error class maps to one exit code of ``cli.main``: configuration
errors exit 2, numeric failures (a broken invariant, a solver or quadrature
that does not converge) exit 3."""

import json
import math

import numpy as np
import pytest

from repeaterscope import cascade, cli, protocol
from repeaterscope.cascade import InvariantError
from repeaterscope.channel import ConfigurationError, UnsupportedWavelengthError
from repeaterscope.coupling import QuadratureError, SolverError
from repeaterscope.protocol import ScheduleError
from repeaterscope.states import DegenerateInputError


@pytest.mark.parametrize(
    "error,code",
    [
        (ConfigurationError, 2),
        (UnsupportedWavelengthError, 2),
        (ScheduleError, 2),
        (DegenerateInputError, 2),
        (InvariantError, 3),
        (SolverError, 3),
        (QuadratureError, 3),
    ],
)
def test_error_class_exit_code(monkeypatch, error, code):
    def fail(args):
        raise error("injected")

    monkeypatch.setattr(cli, "_cmd_link", fail)
    assert cli.main(["link"]) == code


def test_invariant_failure_in_the_recursion_exits_3(monkeypatch, capsys):
    # a NaN in the thinning table breaks the level-0 distillation rows; the
    # chain distills there because its initial fidelity is below f_th
    table = cascade._thinning_table

    def poisoned(rows, cap, d):
        out = table(rows, cap, d)
        out[-1, 0] = math.nan
        return out

    monkeypatch.setattr(cascade, "_thinning_table", poisoned)
    with np.errstate(invalid="ignore"):
        code = cli.main(["chain", "--n", "2", "--m", "16", "--f-th", "0.999"])
    assert code == 3
    assert "distillation at level 0" in capsys.readouterr().err


def test_nan_rate_in_a_sweep_exits_3(monkeypatch, tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(
        json.dumps({"media": ["HCF"], "total_distance_km": [80.0], "m": 16, "n_range": [0, 1]})
    )
    monkeypatch.setattr(protocol, "key_fraction", lambda state: math.nan)
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "rows.csv")]) == 3


def test_schedule_error_from_the_recursion_exits_2(monkeypatch):
    def bad_batch(configs):
        raise ValueError("cap 1 cannot hold up to 2 distilled pairs")

    monkeypatch.setattr(protocol, "run_cascade_batch", bad_batch)
    assert cli.main(["chain", "--n", "1", "--m", "8"]) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"media_profiles": {"X": {"coupling_mem_fiber": 0.5}}},
        {"total_distance_km": 100},
        {"media_profiles": {"X": {"att_length_km": {"1550": 30.0}, "coupling_mem_fiber": [1]}}},
        {"media_profiles": [1]},
        {"m": "16"},
        {"f_th": "0.9"},
        {"n_range": [0.5]},
    ],
    ids=[
        "profile-without-attenuation", "scalar-axis", "list-coupling", "profiles-not-a-mapping",
        "string-width", "string-threshold", "fractional-depth",
    ],
)
def test_malformed_sweep_config_exits_2(override, tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"media": ["HCF"], "total_distance_km": [80.0], "m": 16, **override}))
    assert cli.main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_couple_without_points_exits_2(capsys):
    # the CSV header comes from the first row, so a scan needs one angle
    assert cli.main(["couple", "--points", "0"]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err
