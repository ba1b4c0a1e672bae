"""Every error class maps to one exit code of ``cli.main``: a ``ValueError``
(bad input) exits 2, an ``ArithmeticError`` (a broken invariant, a solver or
quadrature that does not converge) exits 3."""

import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

import repeaterscope
from repeaterscope import cascade, cli, protocol

EXIT_BY_BASE = {ValueError: 2, ArithmeticError: 3}


def _error_classes() -> list[type]:
    """Every exception class defined in a repeaterscope module."""
    found = []
    for info in pkgutil.iter_modules(repeaterscope.__path__):
        module = importlib.import_module(f"repeaterscope.{info.name}")
        found += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == module.__name__
        ]
    return found


def _exit_code(error: type) -> int | None:
    """The exit code of the one base of ``error`` among ValueError and
    ArithmeticError; None unless there is exactly one."""
    codes = [code for base, code in EXIT_BY_BASE.items() if issubclass(error, base)]
    return codes[0] if len(codes) == 1 else None


ERRORS = _error_classes()


@pytest.mark.parametrize("error", ERRORS, ids=[f"{e.__name__}-{_exit_code(e)}" for e in ERRORS])
def test_error_class_exit_code(monkeypatch, error):
    code = _exit_code(error)
    assert code is not None, f"{error.__name__} must derive from one of ValueError, ArithmeticError"

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
    def bad_batch(schedule, pi0):
        raise ValueError("cap 1 cannot hold up to 2 distilled pairs")

    monkeypatch.setattr(protocol, "run_cascade_batch", bad_batch)
    assert cli.main(["chain", "--n", "1", "--m", "8"]) == 2


BASE_CONFIG = {"media": ["HCF"], "total_distance_km": [80.0], "m": 16}


def _sweep(**override) -> dict:
    return {**BASE_CONFIG, **override}


def _profile(**entry) -> dict:
    """A sweep over one custom medium ``X``, whose profile ``entry`` amends."""
    profile = {"att_length_km": {"1550": 30.0}, "coupling_mem_fiber": 0.5, **entry}
    return _sweep(media=["X"], media_profiles={"X": profile})


def _sweep_argv(config, tmp_path) -> list[str]:
    """``sweep`` over ``config`` written as JSON; ``None`` leaves the file missing."""
    path = tmp_path / "spec.json"
    if config is not None:
        path.write_text(json.dumps(config))
    return ["sweep", "--config", str(path), "--out", str(tmp_path / "rows.csv")]


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(_sweep(media_profiles={"X": {"coupling_mem_fiber": 0.5}}),
                     id="profile-without-attenuation"),
        pytest.param(_sweep(total_distance_km=100), id="scalar-axis"),
        pytest.param(_profile(coupling_mem_fiber=[1]), id="list-coupling"),
        pytest.param(_sweep(media_profiles=[1]), id="profiles-not-a-mapping"),
        pytest.param(_sweep(m="16"), id="string-width"),
        pytest.param(_sweep(f_th="0.9"), id="string-threshold"),
        pytest.param(_sweep(n_range=[0.5]), id="fractional-depth"),
        pytest.param(_profile(signal_velocity=1.0), id="misspelled-profile-key"),
        pytest.param(_sweep(media=[]), id="empty-media"),
        pytest.param(_sweep(total_distance_km=[]), id="empty-distances"),
        pytest.param(_sweep(total_distance_km=[0]), id="zero-distance"),
        pytest.param(_sweep(n_range=[13]), id="depth-above-12"),
        pytest.param(_sweep(n_range=[-1]), id="negative-depth"),
        pytest.param(_sweep(m=True, f_th=True, n_range=[False, True]), id="boolean-numbers"),
        pytest.param(_sweep(conv_eff=["0.5"]), id="string-axis-entry"),
        pytest.param(_sweep(output_path=["rows.csv"]), id="list-output-path"),
        pytest.param(_sweep(eps_g=[]), id="empty-gate-error"),
        pytest.param(_profile(att_length_km={"1550": 0}), id="zero-attenuation"),
        pytest.param(_profile(coupling_mem_fiber=1.5), id="coupling-above-1"),
        pytest.param(_profile(signal_velocity_kms=0), id="zero-velocity"),
        pytest.param(_profile(att_length_km=[30.0]), id="attenuation-not-a-mapping"),
        pytest.param(_sweep(media_profiles={"X": [30.0]}), id="profile-not-a-mapping"),
        pytest.param(_sweep(media_profiles={"X": {"att_length_km": {"1550": 30.0}}}),
                     id="profile-without-coupling"),
        pytest.param([BASE_CONFIG], id="array-config"),
        pytest.param(None, id="missing-config"),
    ],
)
def test_malformed_sweep_config_exits_2(config, tmp_path, capsys):
    assert cli.main(_sweep_argv(config, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize(
    "case,named",
    [
        pytest.param(["link", "--l0", "nan"], "spacing", id="link-l0-nan"),
        pytest.param(["link", "--l0", "inf"], "spacing", id="link-l0-inf"),
        pytest.param(["chain", "--l0", "inf"], "spacing", id="chain-l0-inf"),
        pytest.param(["couple", "--wavelength", "nan"], "wavelength", id="couple-wavelength-nan"),
        pytest.param(["couple", "--wavelength", "inf"], "wavelength", id="couple-wavelength-inf"),
        # --theta-max is checked once, against the tilt model's [0, 0.5) rad
        *[
            pytest.param(["couple", "--theta-max", value], "--theta-max must lie in [0, 0.5) rad",
                         id=f"couple-theta-{name}")
            for value, name in (("nan", "nan"), ("inf", "inf"), ("-0.1", "minus-0.1"), ("0.5", "0.5"))
        ],
        pytest.param(_sweep(total_distance_km=[math.nan]), "total distances",
                     id="sweep-distance-nan"),
        pytest.param(_sweep(total_distance_km=[math.inf]), "total distances",
                     id="sweep-distance-inf"),
        pytest.param(_profile(att_length_km={"1550": math.nan}), "attenuation lengths",
                     id="profile-attenuation-nan"),
        pytest.param(_profile(att_length_km={"1550": math.inf}), "attenuation lengths",
                     id="profile-attenuation-inf"),
        pytest.param(_profile(signal_velocity_kms=math.inf), "signal velocity",
                     id="profile-velocity-inf"),
        # out-of-range and mistyped values exit 2 the same way, naming the value
        pytest.param(_sweep(media="SMF"), "media", id="string-media-axis"),
        # profile values follow the spec's rule: a bool or a string is no number
        pytest.param(_profile(coupling_mem_fiber=True), "'X' coupling_mem_fiber",
                     id="boolean-coupling"),
        pytest.param(_profile(signal_velocity_kms="2e5"), "'X' signal_velocity_kms",
                     id="string-velocity"),
        pytest.param(_profile(att_length_km={"1550": "30"}), "'X' att_length_km[1550]",
                     id="string-attenuation"),
        pytest.param(_sweep(media_profiles=[]), "media_profiles", id="empty-profiles-list"),
        pytest.param(["chain", "--n", "13"], "nesting depth", id="chain-depth-13"),
        pytest.param(["chain", "--f-th", "1.5"], "fidelity threshold must lie in [0, 1]",
                     id="chain-threshold-1.5"),
        pytest.param(["chain", "--m", "16", "--oracle", "--trials", "0"],
                     "trials must be positive", id="oracle-trials-0"),
        pytest.param(_sweep(media=[1]), "media entries must be names", id="numeric-media-entry"),
        pytest.param(["chain", "--n", "19", "--eps-g", "0.1", "--t2", "inf", "--m", "16"],
                     "nesting depth", id="chain-depth-19"),
        # a sweep's depths are checked before a spacing is formed from them
        pytest.param(_sweep(n_range=[5000]), "nesting depth", id="sweep-depth-5000"),
        pytest.param(_sweep(n_range=[-1018]), "nesting depth", id="sweep-depth-minus-1018"),
        pytest.param(_sweep(n_range=[-5000]), "nesting depth", id="sweep-depth-minus-5000"),
        # a width is bounded before a thinning table is sized from it
        pytest.param(["chain", "--m", "16385"], "multiplexing width", id="chain-width-16385"),
        pytest.param(_sweep(m=16385), "multiplexing width", id="sweep-width-16385"),
        # a Philox key holds a seed in [0, 2**63) without loss
        *[
            pytest.param(["chain", "--m", "16", "--oracle", "--trials", "2000", "--seed", str(seed)],
                         "seed", id=f"oracle-seed-{name}")
            for seed, name in ((-1, "minus-1"), (2**63, "2-63"), (2**64, "2-64"))
        ],
        # a wavelength key is a positive integer, and names one wavelength once
        pytest.param(_profile(att_length_km={"-5": 30.0}), "wavelengths must be positive",
                     id="negative-wavelength"),
        pytest.param(_profile(att_length_km={"0": 30.0}), "wavelengths must be positive",
                     id="zero-wavelength"),
        pytest.param(_profile(att_length_km={"abc": 30.0}), "'X' att_length_km[abc]",
                     id="non-integer-wavelength"),
        pytest.param(_profile(att_length_km={"1550.5": 30.0}), "'X' att_length_km[1550.5]",
                     id="fractional-wavelength"),
        pytest.param(_profile(att_length_km={"1550": 30.0, "01550": 40.0}),
                     "'X' att_length_km[01550]: wavelength 1550 is given twice",
                     id="repeated-wavelength"),
    ],
)
def test_non_finite_input_exits_2(case, named, tmp_path, capsys):
    argv = case if isinstance(case, list) else _sweep_argv(case, tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err


def test_output_to_a_missing_directory_exits_2(tmp_path, capsys):
    assert cli.main(["link", "--out", str(tmp_path / "missing" / "link.json")]) == 2
    assert capsys.readouterr().err.startswith("i/o error:")


def test_couple_without_points_exits_2(capsys):
    # the CSV header comes from the first row, so a scan needs one angle
    assert cli.main(["couple", "--points", "0"]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err
