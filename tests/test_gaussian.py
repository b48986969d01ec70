import math

import pytest

from ampurify.errors import DomainError
from ampurify.gaussian import (
    ChannelKind,
    ChannelParam,
    DisplacedThermal,
    apply_gaussian,
    avg_fidelity_gaussian,
)
from ampurify.params import NoisyEnsemble


def test_squeezer_noise_law():
    # a -> cosh(r) a + sinh(r) b^dag: nbar -> cosh^2 nbar + sinh^2
    st = DisplacedThermal(amp=0.7 + 0.2j, nbar=0.5)
    out = apply_gaussian(st, ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, 1.1))
    ch, sh = math.cosh(1.1), math.sinh(1.1)
    assert out.amp == pytest.approx(ch * (0.7 + 0.2j), rel=1e-15)
    assert out.nbar == pytest.approx(ch**2 * 0.5 + sh**2, rel=1e-14)


def test_attenuator_noise_law():
    st = DisplacedThermal(amp=1.0 - 0.5j, nbar=2.0)
    out = apply_gaussian(st, ChannelParam(ChannelKind.ATTENUATE, 0.6))
    c = math.cos(0.6)
    assert out.amp == pytest.approx(c * (1.0 - 0.5j), rel=1e-15)
    assert out.nbar == pytest.approx(c * c * 2.0, rel=1e-14)


def test_measure_prepare_noise_law():
    # heterodyne adds a vacuum unit, re-preparation at scale z: nbar -> z^2 (nbar + 1)
    st = DisplacedThermal(amp=0.7 + 0.2j, nbar=0.5)
    out = apply_gaussian(st, ChannelParam(ChannelKind.MEASURE_PREPARE, 0.8))
    assert out.amp == pytest.approx(0.8 * (0.7 + 0.2j), rel=1e-15)
    assert out.nbar == pytest.approx(0.64 * 1.5, rel=1e-14)


def test_identity_channel_is_inert():
    st = DisplacedThermal(amp=0.3, nbar=1.5)
    out = apply_gaussian(st, ChannelParam(ChannelKind.IDENTITY))
    assert out == st


def test_channels_compose_like_their_scales():
    st = DisplacedThermal(amp=1.0, nbar=0.0)
    sq = ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, 0.8)
    at = ChannelParam(ChannelKind.ATTENUATE, 0.4)
    once = apply_gaussian(apply_gaussian(st, sq), at)
    assert once.amp == pytest.approx(math.cosh(0.8) * math.cos(0.4), rel=1e-15)
    assert once.nbar == pytest.approx(math.cos(0.4) ** 2 * math.sinh(0.8) ** 2, rel=1e-14)


@pytest.mark.parametrize("value", [-0.1, math.nan])
def test_bad_squeeze_parameter_rejected(value):
    for kind in (ChannelKind.TWO_MODE_SQUEEZE, ChannelKind.MEASURE_PREPARE):
        with pytest.raises(DomainError):
            ChannelParam(kind, value)


def test_bad_attenuation_angle_rejected():
    with pytest.raises(DomainError):
        ChannelParam(ChannelKind.ATTENUATE, math.pi)


def test_avg_fidelity_squeezer_formula():
    # lam mu / (lam (mu+1) cosh^2 r + mu (g - cosh r)^2), spot value by hand
    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    r = 0.6
    got = avg_fidelity_gaussian(ens, ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, r))
    ch = math.cosh(r)
    assert got == pytest.approx(1.0 / (2.0 * ch * ch + (2.0 - ch) ** 2), rel=1e-14)


def test_avg_fidelity_identity_matches_passive_value():
    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    got = avg_fidelity_gaussian(ens, ChannelParam(ChannelKind.IDENTITY))
    # 1 / ((g-1)^2 N_C + N_T + 1) at N_C = N_T = 1, g = 2
    assert got == pytest.approx(1.0 / 3.0, abs=1e-15)
