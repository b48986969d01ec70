import math
from fractions import Fraction

import pytest

from ampurify.errors import DomainError
from ampurify.gaussian import _SMALL_Z, GaussianChannel, avg_fidelity_gaussian
from ampurify.params import NoisyEnsemble


def _occupation(channel: GaussianChannel, n: float) -> float:
    """The Schrodinger-picture law n -> s^2 (n + nbar + 1) - 1 of a channel (s, nbar)."""
    s, nbar = channel
    return s * s * (n + nbar + 1.0) - 1.0


def test_squeezer_noise_law():
    # a -> cosh(r) a + sinh(r) b^dag: nbar -> cosh^2 nbar + sinh^2
    channel = GaussianChannel.amplifier(1.1)
    ch, sh = math.cosh(1.1), math.sinh(1.1)
    assert channel.scale * (0.7 + 0.2j) == pytest.approx(ch * (0.7 + 0.2j), rel=1e-15)
    assert _occupation(channel, 0.5) == pytest.approx(ch**2 * 0.5 + sh**2, rel=1e-14)


def test_attenuator_nbar_is_the_correctly_rounded_square():
    # at this angle (draw 1896 of default_rng(0) on [0, pi/2]) glibc 2.36's pow
    # rounds tan(theta) ** 2 one ulp off; the product tan * tan is correctly rounded
    theta = 0.31295939425251645
    tan = Fraction(math.tan(theta))
    assert GaussianChannel.attenuator(theta).nbar == float(tan * tan)


def test_attenuator_noise_law():
    channel = GaussianChannel.attenuator(0.6)
    c = math.cos(0.6)
    assert channel.scale * (1.0 - 0.5j) == pytest.approx(c * (1.0 - 0.5j), rel=1e-15)
    assert _occupation(channel, 2.0) == pytest.approx(c * c * 2.0, rel=1e-14)


def test_measure_prepare_noise_law():
    # heterodyne adds a vacuum unit, re-preparation at scale z: nbar -> z^2 (nbar + 1)
    channel = GaussianChannel.heterodyne(0.8)
    assert channel.scale * (0.7 + 0.2j) == pytest.approx(0.8 * (0.7 + 0.2j), rel=1e-15)
    assert _occupation(channel, 0.5) == pytest.approx(0.64 * 1.5, rel=1e-14)


def test_identity_channel_is_inert():
    channel = GaussianChannel.identity()
    assert channel.scale == 1.0
    assert _occupation(channel, 1.5) == 1.5


def test_channels_compose_like_their_scales():
    sq, at = GaussianChannel.amplifier(0.8), GaussianChannel.attenuator(0.4)
    assert sq.scale * at.scale == pytest.approx(math.cosh(0.8) * math.cos(0.4), rel=1e-15)
    once = _occupation(at, _occupation(sq, 0.0))
    assert once == pytest.approx(math.cos(0.4) ** 2 * math.sinh(0.8) ** 2, rel=1e-14)


@pytest.mark.parametrize("value", [-0.1, math.nan])
def test_bad_squeeze_parameter_rejected(value):
    for build in (GaussianChannel.amplifier, GaussianChannel.heterodyne):
        with pytest.raises(DomainError):
            build(value)


def test_bad_attenuation_angle_rejected():
    with pytest.raises(DomainError):
        GaussianChannel.attenuator(math.pi)


def test_avg_fidelity_squeezer_formula():
    # lam mu / (lam (mu+1) cosh^2 r + mu (g - cosh r)^2), spot value by hand
    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    r = 0.6
    got = avg_fidelity_gaussian(ens, GaussianChannel.amplifier(r))
    ch = math.cosh(r)
    assert got == pytest.approx(1.0 / (2.0 * ch * ch + (2.0 - ch) ** 2), rel=1e-14)


def test_avg_fidelity_identity_matches_passive_value():
    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    got = avg_fidelity_gaussian(ens, GaussianChannel.identity())
    # 1 / ((g-1)^2 N_C + N_T + 1) at N_C = N_T = 1, g = 2
    assert got == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize(
    "channel",
    [GaussianChannel.heterodyne(0.0), GaussianChannel.heterodyne(1e-30),
     GaussianChannel.attenuator(math.pi / 2)],
    ids=["heterodyne-z0", "heterodyne-z1e-30", "attenuator-half-pi"],
)
def test_vacuum_output_limit_scores_lambda_over_lambda_plus_gain_squared(channel):
    # as s -> 0 the output is vacuum, s^2 nbar -> 1 and F -> lambda' / (lambda' + g'^2)
    assert avg_fidelity_gaussian(NoisyEnsemble(1.0, 2.0, 1.5), channel) == 0.3076923076923077


def test_heterodyne_at_the_small_scale_threshold_meets_the_limit():
    got = avg_fidelity_gaussian(NoisyEnsemble(1.0, 2.0, 1.5), GaussianChannel.heterodyne(_SMALL_Z))
    assert got == pytest.approx(1.0 / 3.25, abs=1e-15)


@pytest.mark.parametrize(
    "ens, channel",
    [(NoisyEnsemble(1.0, 1.0, 1e160), GaussianChannel.identity()),
     (NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.amplifier(400.0))],
    ids=["identity-g1e160", "amplifier-r400"],
)
def test_a_square_past_the_float_range_scores_its_underflowed_value(ens, channel):
    # (g' - s)^2 passes the largest float; F is below 1e-300, so 0.0 is within 1e-300 of it
    s, nbar = (Fraction(x) for x in channel)
    lam, mu, g = (Fraction(x) for x in ens)
    exact = lam / (lam * (s * s * (1 / mu + 1) + s * s * nbar) + (g - s) ** 2)
    got = avg_fidelity_gaussian(ens, channel)
    assert math.isfinite(got) and abs(got - exact) <= 1e-300
