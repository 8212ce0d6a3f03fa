"""OSNR to BER translation for DP-16QAM coherent signals (§6.2, Fig 14).

The testbed transceivers run dual-polarization 16-QAM with soft-decision FEC
(2e-2 pre-FEC threshold, <1e-15 post-FEC). We use the standard textbook
chain [30]: OSNR (0.1 nm reference) -> per-symbol SNR -> Gray-coded square
16-QAM bit error probability.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from repro.units import FEC_BER_THRESHOLD, POST_FEC_BER, db_to_linear, linear_to_db

#: OSNR reference bandwidth (0.1 nm at 1550 nm), GHz.
OSNR_REFERENCE_GHZ = 12.5

#: Polarizations in a DP signal.
DP_POLARIZATIONS = 2


def snr_from_osnr_db(
    osnr_db: float, baud_gbaud: float, polarizations: int = DP_POLARIZATIONS
) -> float:
    """Per-symbol linear SNR from OSNR.

    SNR = OSNR * 2 * B_ref / (p * R_s): ASE in both polarizations counts
    toward OSNR while each polarization tributary only sees half.
    """
    if baud_gbaud <= 0:
        raise ValueError("baud rate must be positive")
    if polarizations not in (1, 2):
        raise ValueError("polarizations must be 1 or 2")
    return db_to_linear(osnr_db) * 2.0 * OSNR_REFERENCE_GHZ / (
        polarizations * baud_gbaud
    )


def ber_16qam(snr_linear: float) -> float:
    """Gray-coded square 16-QAM bit error rate at per-symbol SNR ``snr``.

    BER = (3/8) * erfc( sqrt(SNR / 10) ), the standard high-SNR expression.
    """
    if snr_linear < 0:
        raise ValueError("SNR must be non-negative")
    return 0.375 * math.erfc(math.sqrt(snr_linear / 10.0))


def prefec_ber_from_osnr_db(osnr_db: float, baud_gbaud: float = 59.84) -> float:
    """Pre-FEC BER of a DP-16QAM channel at ``osnr_db``."""
    return ber_16qam(snr_from_osnr_db(osnr_db, baud_gbaud))


def post_fec_ber(prefec: float, threshold: float = FEC_BER_THRESHOLD) -> float:
    """Post-FEC BER: essentially error-free below the SD-FEC threshold.

    Above threshold the code fails to converge and errors pass through,
    which we model as the uncorrected BER.
    """
    if not (0.0 <= prefec <= 0.5):
        raise ValueError("pre-FEC BER must be in [0, 0.5]")
    return POST_FEC_BER if prefec <= threshold else prefec


def _erfcinv(y: float) -> float:
    """Inverse of :func:`math.erfc` on (0, 2), via the normal quantile.

    ``erfc(x) = 2 * (1 - Phi(x * sqrt(2)))``, so ``erfcinv(y) =
    -Phi^-1(y / 2) / sqrt(2)``.
    """
    return -NormalDist().inv_cdf(y / 2.0) / math.sqrt(2.0)


def required_osnr_db(
    ber_target: float = FEC_BER_THRESHOLD, baud_gbaud: float = 59.84
) -> float:
    """Minimum OSNR for a DP-16QAM channel to hit ``ber_target`` pre-FEC."""
    if not (0.0 < ber_target < 0.375):
        raise ValueError("BER target must be in (0, 0.375)")
    snr = 10.0 * _erfcinv(ber_target / 0.375) ** 2
    osnr_linear = snr * DP_POLARIZATIONS * baud_gbaud / (2.0 * OSNR_REFERENCE_GHZ)
    return linear_to_db(osnr_linear)
