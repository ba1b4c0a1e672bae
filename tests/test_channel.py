import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from repeaterscope import channel
from repeaterscope.channel import (
    MEMORY_NM,
    TELECOM_NM,
    ConfigurationError,
    LinkBudget,
    MediumProfile,
    conversion_threshold,
    default_media,
    elementary_success,
    eta_c,
    hcf_profile,
    select_wavelength,
    smf_profile,
)

HCF = hcf_profile()
SMF = smf_profile()


def budget(eta_hw=1.0, conv=1.0, l0=20.0):
    return LinkBudget(eta_hardware=eta_hw, conv_eff=conv, l0_km=l0)


class TestProfiles:
    def test_paper_attenuation_constants(self):
        assert SMF.att_length_km[TELECOM_NM] == 28.95
        assert HCF.att_length_km[MEMORY_NM] == 24.127
        assert HCF.att_length_km[TELECOM_NM] == 78.96

    def test_smf_disallows_memory_wavelength(self):
        assert MEMORY_NM not in SMF.att_length_km
        with pytest.raises(ConfigurationError):
            MediumProfile(
                name="SMF",
                att_length_km={MEMORY_NM: 5.0, TELECOM_NM: 28.95},
                coupling_mem_fiber=0.83,
            )

    def test_medium_without_wavelength_is_rejected(self):
        with pytest.raises(ConfigurationError, match="allows no wavelength"):
            MediumProfile("X", {}, 0.5)

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            LinkBudget(eta_hardware=1.2, conv_eff=0.5, l0_km=10.0)
        for conv_eff in (-0.1, 1.5, math.nan):
            with pytest.raises(ConfigurationError, match="conv_eff must lie in"):
                LinkBudget(eta_hardware=1.0, conv_eff=conv_eff, l0_km=10.0)
        with pytest.raises(ConfigurationError):
            LinkBudget(eta_hardware=1.0, conv_eff=0.5, l0_km=0.0)


class TestEtaC:
    def test_all_unity(self):
        medium = MediumProfile(
            name="HCF", att_length_km={MEMORY_NM: 24.127}, coupling_mem_fiber=1.0
        )
        assert eta_c(medium, budget(), MEMORY_NM) == 1.0

    def test_telecom_includes_conversion(self):
        assert eta_c(HCF, budget(conv=0.5), TELECOM_NM) == pytest.approx(0.395)

    def test_memory_native_skips_conversion(self):
        assert eta_c(HCF, budget(conv=0.5), MEMORY_NM) == pytest.approx(0.79)

    def test_disallowed_wavelength(self):
        with pytest.raises(ConfigurationError, match="not allowed on SMF"):
            eta_c(SMF, budget(), MEMORY_NM)


class TestElementarySuccess:
    def test_lossless_limit_is_half(self):
        medium = MediumProfile(
            name="HCF", att_length_km={MEMORY_NM: 24.127}, coupling_mem_fiber=1.0
        )
        val = elementary_success(medium, budget(l0=1e-12), MEMORY_NM)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_one_attenuation_length(self):
        medium = MediumProfile(
            name="HCF", att_length_km={TELECOM_NM: 78.96}, coupling_mem_fiber=1.0
        )
        val = elementary_success(medium, budget(l0=78.96), TELECOM_NM)
        assert val == pytest.approx(0.5 * math.exp(-1.0), abs=1e-9)

    def test_smf_telecom_value(self):
        val = elementary_success(SMF, budget(l0=28.95), TELECOM_NM)
        assert val == pytest.approx(0.5 * 0.83**2 * math.exp(-1.0), abs=1e-12)
        assert val == pytest.approx(0.126716, abs=1e-6)

    @given(
        st.floats(1.0, 200.0),
        st.floats(1.0, 200.0),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    def test_monotone_in_spacing_and_efficiency(self, l0a, l0b, ea, eb):
        lo, hi = sorted((l0a, l0b))
        e_lo, e_hi = sorted((ea, eb))
        further = elementary_success(HCF, budget(eta_hw=e_hi, l0=hi), TELECOM_NM)
        nearer = elementary_success(HCF, budget(eta_hw=e_hi, l0=lo), TELECOM_NM)
        weaker = elementary_success(HCF, budget(eta_hw=e_lo, l0=lo), TELECOM_NM)
        assert further <= nearer
        assert weaker <= nearer


class TestSelectWavelength:
    def test_smf_always_telecom(self):
        for l0 in (1.0, 20.0, 80.0):
            wl, _ = select_wavelength(SMF, budget(l0=l0, conv=0.2))
            assert wl == TELECOM_NM

    def test_hcf_low_conversion_prefers_memory(self):
        wl, pi0 = select_wavelength(HCF, budget(conv=0.5, l0=20.0))
        assert wl == MEMORY_NM
        assert pi0 == pytest.approx(
            0.5 * 0.79**2 * math.exp(-20.0 / 24.127), abs=1e-12
        )

    def test_hcf_perfect_conversion_prefers_telecom(self):
        for l0 in (5.0, 20.0, 60.0):
            wl, _ = select_wavelength(HCF, budget(conv=1.0, l0=l0))
            assert wl == TELECOM_NM

    @pytest.mark.parametrize("medium", [SMF, HCF], ids=["SMF", "HCF"])
    def test_forms_each_success_probability_once(self, medium, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return elementary_success(*args)

        monkeypatch.setattr(channel, "elementary_success", counted)
        wl, pi0 = select_wavelength(medium, budget(conv=0.5))
        assert sorted(calls) == sorted(medium.att_length_km)
        assert pi0 == elementary_success(medium, budget(conv=0.5), wl)

    @given(st.floats(0.05, 1.0), st.floats(1.0, 100.0), st.floats(0.05, 1.0))
    def test_argmax_invariant_under_hardware_scaling(self, conv, l0, scale):
        wl_full, _ = select_wavelength(HCF, budget(eta_hw=1.0, conv=conv, l0=l0))
        wl_scaled, _ = select_wavelength(HCF, budget(eta_hw=scale, conv=conv, l0=l0))
        assert wl_full == wl_scaled


class TestConversionThreshold:
    def test_zero_length_boundary(self):
        assert conversion_threshold(HCF, 0.0) == 1.0

    def test_reference_values(self):
        assert conversion_threshold(HCF, 20.0) == pytest.approx(0.7501, abs=5e-4)
        assert conversion_threshold(HCF, 50.0) == pytest.approx(0.4870, abs=5e-4)

    def test_smf_unsupported(self):
        # a single-wavelength medium has no threshold to report
        assert math.isnan(conversion_threshold(SMF, 20.0))

    @pytest.mark.parametrize("l0", [1.0, 7.5, 20.0, 42.0, 77.0, 100.0])
    def test_matches_numerical_equality_solve(self, l0):
        def gap(conv):
            b = budget(conv=conv, l0=l0)
            return elementary_success(HCF, b, MEMORY_NM) - elementary_success(
                HCF, b, TELECOM_NM
            )

        closed = conversion_threshold(HCF, l0)
        numeric = brentq(gap, 1e-6, 1.0, xtol=1e-14, rtol=1e-15)
        assert closed == pytest.approx(numeric, abs=1e-9)

    @pytest.mark.parametrize("l0", [5.0, 20.0, 60.0])
    def test_selection_flips_at_boundary(self, l0):
        star = conversion_threshold(HCF, l0)
        below, _ = select_wavelength(HCF, budget(conv=star - 1e-6, l0=l0))
        above, _ = select_wavelength(HCF, budget(conv=star + 1e-6, l0=l0))
        assert below == MEMORY_NM
        assert above == TELECOM_NM


def test_default_media_names():
    media = default_media()
    assert set(media) == {"SMF", "HCF"}
    assert media["SMF"].coupling_mem_fiber == 0.83
    assert media["HCF"].coupling_mem_fiber == 0.79
