"""OSNR -> BER translation for DP-16QAM (§6.2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.optics.ber import (
    ber_16qam,
    post_fec_ber,
    prefec_ber_from_osnr_db,
    required_osnr_db,
    snr_from_osnr_db,
)
from repro.units import FEC_BER_THRESHOLD, POST_FEC_BER


class TestSnr:
    def test_dp_halves_snr(self):
        dp = snr_from_osnr_db(20.0, 60.0, polarizations=2)
        sp = snr_from_osnr_db(20.0, 60.0, polarizations=1)
        assert sp == pytest.approx(2 * dp)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            snr_from_osnr_db(20.0, 0.0)
        with pytest.raises(ValueError):
            snr_from_osnr_db(20.0, 60.0, polarizations=3)


class TestBer16Qam:
    def test_monotone_decreasing_in_snr(self):
        bers = [ber_16qam(snr) for snr in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_zero_snr_is_worst_case(self):
        assert ber_16qam(0.0) == pytest.approx(0.375)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ber_16qam(-0.1)

    @given(osnr=st.floats(min_value=5.0, max_value=40.0))
    @settings(max_examples=50, deadline=None)
    def test_ber_in_valid_range(self, osnr):
        ber = prefec_ber_from_osnr_db(osnr)
        assert 0.0 <= ber <= 0.375


class TestFec:
    def test_below_threshold_is_error_free(self):
        assert post_fec_ber(1e-3) == POST_FEC_BER
        assert post_fec_ber(FEC_BER_THRESHOLD) == POST_FEC_BER

    def test_above_threshold_passes_through(self):
        assert post_fec_ber(0.05) == 0.05

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            post_fec_ber(0.6)
        with pytest.raises(ValueError):
            post_fec_ber(-0.1)


class TestRequiredOsnr:
    def test_round_trip_with_ber(self):
        osnr = required_osnr_db(FEC_BER_THRESHOLD)
        assert prefec_ber_from_osnr_db(osnr) == pytest.approx(
            FEC_BER_THRESHOLD, rel=1e-6
        )

    def test_reasonable_for_400zr_class(self):
        # 400ZR-class DP-16QAM needs roughly ~20-26 dB OSNR at the SD-FEC
        # threshold; sanity-check the model lands in that regime.
        osnr = required_osnr_db(FEC_BER_THRESHOLD, baud_gbaud=59.84)
        assert 12.0 < osnr < 26.0

    def test_tighter_target_needs_more_osnr(self):
        assert required_osnr_db(1e-4) > required_osnr_db(1e-2)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            required_osnr_db(0.4)
        with pytest.raises(ValueError):
            required_osnr_db(0.0)


class TestStdlibSpecialFunctions:
    """``math.erfc`` and the normal quantile reproduce ``scipy.special``'s
    ``erfc``/``erfcinv``: the literals below were computed with scipy
    1.17.1 through the same two functions."""

    @pytest.mark.parametrize(
        "snr,expected",
        [
            (0.5, 0.28193611276719344),
            (10.0, 0.058987202643856936),
            (40.0, 0.0017541506178927247),
            (150.0, 1.620173646685308e-08),
        ],
    )
    def test_ber_16qam_matches_scipy(self, snr, expected):
        assert ber_16qam(snr) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "target,expected",
        [
            (2e-2, 19.51161167384881),
            (1e-3, 23.343816803619166),
            (1e-6, 27.22314267586531),
            (0.3, 1.8648346172802064),
        ],
    )
    def test_required_osnr_matches_scipy(self, target, expected):
        assert required_osnr_db(target) == pytest.approx(expected, rel=1e-12)


def test_planner_loads_neither_numpy_nor_scipy():
    """No runtime path imports numpy or scipy: not the facade, the daemon,
    the testbed, nor a full golden-region plan."""
    script = (
        "import sys\n"
        "import repro.api, repro.service.daemon, repro.testbed\n"
        "from repro.region.catalog import make_region\n"
        "repro.api.plan(make_region(0, 5, dc_fibers=8).spec)\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
