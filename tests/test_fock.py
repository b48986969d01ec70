import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ampurify import fock, formulas
from ampurify.errors import DomainError, TruncationError
from ampurify.fock import (
    FockDensity,
    apply_attenuator,
    apply_filter,
    apply_heterodyne_mp,
    apply_two_mode_squeezer,
    avg_fidelity_numeric,
)
from ampurify.gaussian import FilterSpec, GaussianChannel
from ampurify.params import NoisyEnsemble


def _ket(amp: complex, dim: int) -> np.ndarray:
    """|amp> truncated to dim levels."""
    return fock._coherent_kets(np.array([amp]), dim)[0]


def _displaced_thermal(amp: complex, nbar: float, dim: int) -> FockDensity:
    """D(amp) rho_th(nbar) D(amp)^dag at cutoff dim, from the prior stacks' builder."""
    mat = fock._displaced_thermal_stack(np.array([abs(amp)]), nbar, dim)[0]
    return FockDensity(dim, fock._rotated(mat, np.angle(amp)))


def _mean_photons(rho: FockDensity) -> float:
    return float(np.real(np.diag(rho.mat) @ np.arange(rho.dim)))


def _mean_amp(rho: FockDensity) -> complex:
    lower = np.diag(np.sqrt(np.arange(1, rho.dim)), k=1)  # annihilation operator
    return complex(np.trace(rho.mat @ lower))


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


def test_coherent_ket_is_normalised():
    ket = _ket(1.2 + 0.4j, 64)
    assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)


def test_coherent_kets_zero_every_entry_below_the_floor(monkeypatch):
    amps = np.linspace(0.0, 150.0, 3001)
    kets = fock._coherent_kets(amps, 127)
    assert not ((kets > 0.0) & (kets < 1e-100)).any()
    monkeypatch.setattr(fock, "_LOG_KET_FLOOR", -math.inf)
    exact = fock._coherent_kets(amps, 127)
    moved = kets != exact
    assert (kets[moved] == 0.0).all() and (exact[moved] < 1e-100).all()


def test_displaced_thermal_stack_zeroes_every_entry_below_the_floor(monkeypatch):
    radii = np.linspace(0.0, 40.0, 81)
    stack = fock._displaced_thermal_stack(radii, 0.5, 127)
    assert not ((stack > 0.0) & (stack < 1e-100)).any()
    monkeypatch.setattr(fock, "_LOG_KET_FLOOR", -math.inf)
    exact = fock._displaced_thermal_stack(radii, 0.5, 127)
    moved = stack != exact
    assert moved.any() and (stack[moved] == 0.0).all() and (exact[moved] < 1e-100).all()


def _per_column_stack(radii: np.ndarray, nbar: float, dim: int) -> np.ndarray:
    """The row recurrence on (amplitude, column) arrays, writing each new row
    and its mirror column per step: the reference the in-place builder keeps."""
    s, k = 1.0 + nbar, np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_r = np.where(k > 0, k * np.log(radii)[:, None], 0.0)
    row = np.exp(-(radii[:, None] ** 2 / s) + k_log_r - (k + 1.0) * math.log(s)
                 - 0.5 * fock._log_factorials(dim))
    out = np.empty((radii.size, dim, dim))
    for m in range(dim):
        out[:, m:, m] = out[:, m, m:] = row[:, m:]
        n = k[m + 1 :]
        row[:, m + 1 :] = ((radii / s / math.sqrt(m + 1.0))[:, None] * row[:, m + 1 :]
                           + nbar / s * np.sqrt(n / (m + 1.0)) * row[:, m:-1])
    out[out < math.exp(fock._LOG_KET_FLOOR)] = 0.0
    return out


@pytest.mark.parametrize("dim", [1, 2, 48, 64, 128])
@pytest.mark.parametrize("nbar", [0.0, 1e-12, 1.0, 4.0])
def test_displaced_thermal_stack_is_bit_identical_to_the_per_column_recurrence(dim, nbar):
    # both node sets reach r^2/s > 708, where the start values underflow
    far_rule = np.sqrt(np.polynomial.laguerre.laggauss(160)[0] / 0.1)
    for radii in (far_rule, np.array([0.0, 1e-3, 1.0, 30.0, 40.0, 60.0]), np.array([2.5])):
        stack = fock._displaced_thermal_stack(radii, nbar, dim)
        assert stack.flags.c_contiguous
        assert np.array_equal(stack, _per_column_stack(radii, nbar, dim))


def test_ket_floor_leaves_the_squeezer_average_bit_identical(monkeypatch):
    from ampurify.formulas import tune

    ens = NoisyEnsemble(lambda_prime=1.0, mu=1.0, g_prime=3.5)
    channel = GaussianChannel.amplifier(math.acosh(tune(ens).cosh_r))
    floored = avg_fidelity_numeric(ens, channel, dim=64, radial_nodes=80)
    monkeypatch.setattr(fock, "_LOG_KET_FLOOR", -math.inf)
    assert avg_fidelity_numeric(ens, channel, dim=64, radial_nodes=80) == floored


def test_displaced_thermal_trace_and_occupation():
    rho = _displaced_thermal(0.8, 0.7, 64)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    assert _mean_photons(rho) == pytest.approx(0.8**2 + 0.7, rel=1e-9)


def test_undisplaced_thermal_diagonal_is_geometric():
    rho = _displaced_thermal(0.0, 1.0, 32)
    diag = np.real(np.diag(rho.mat))
    ratios = diag[1:12] / diag[:11]
    assert np.allclose(ratios, 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_squeezer_on_vacuum_yields_thermal_noise():
    vac = _displaced_thermal(0.0, 0.0, 24)
    out = apply_two_mode_squeezer(vac, 0.5, dim_anc=48)
    assert out.dim == 24 + 48 - 1
    assert out.trace() == pytest.approx(1.0, abs=1e-12)
    assert _mean_photons(out) == pytest.approx(math.sinh(0.5) ** 2, rel=1e-10)


def test_squeezer_amplifies_coherent_amplitude():
    rho = _displaced_thermal(0.6, 0.0, 24)
    out = apply_two_mode_squeezer(rho, 0.4, dim_anc=48)
    assert _mean_amp(out) == pytest.approx(math.cosh(0.4) * 0.6, rel=1e-9)


def test_attenuator_keeps_coherent_states_coherent():
    rho = _displaced_thermal(1.0, 0.0, 48)
    out = apply_attenuator(rho, 0.5)
    target = _ket(math.cos(0.5) * 1.0, 48)
    overlap = float(np.real(target.conj() @ out.mat @ target))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_attenuator_scales_thermal_occupation():
    rho = _displaced_thermal(0.0, 2.0, 48)
    out = apply_attenuator(rho, 0.7)
    assert _mean_photons(out) == pytest.approx(
        math.cos(0.7) ** 2 * _mean_photons(rho), rel=1e-10
    )


def test_attenuator_angle_guard():
    rho = _displaced_thermal(0.0, 0.0, 8)
    with pytest.raises(DomainError):
        apply_attenuator(rho, -0.1)


def test_filter_reweights_the_diagonal():
    rho = _displaced_thermal(0.0, 1.0, 32)
    f = FilterSpec(k_cut=6, y=1.3)
    out = apply_filter(rho, f)
    diag_in = np.real(np.diag(rho.mat))
    diag_out = np.real(np.diag(out.mat))
    for n in range(7):
        assert diag_out[n] == pytest.approx(diag_in[n] * 1.3 ** (2 * (n - 6)), rel=1e-12)
    assert np.all(diag_out[7:] == 0.0)


def test_filter_cut_must_fit_inside_the_cutoff():
    rho = _displaced_thermal(0.0, 0.25, 16)
    with pytest.raises(DomainError):
        apply_filter(rho, FilterSpec(k_cut=16, y=1.1))


@pytest.mark.parametrize(
    "channel",
    [
        lambda rho: apply_two_mode_squeezer(rho, 0.4, dim_anc=16),
        lambda rho: apply_attenuator(rho, 0.6),
        lambda rho: apply_filter(rho, FilterSpec(k_cut=20, y=1.1)),
        lambda rho: apply_heterodyne_mp(rho, 0.7),
    ],
    ids=["squeezer", "attenuator", "filter", "heterodyne"],
)
def test_shift_diagonal_channels_are_phase_covariant(channel):
    # avg_fidelity_numeric's radial-only reduction rests on this symmetry
    phi = 0.7
    rho = _displaced_thermal(0.9 + 0.5j, 0.4, 32)
    u_in = np.exp(1j * phi * np.arange(rho.dim))
    rotated = channel(FockDensity(rho.dim, u_in[:, None] * rho.mat * u_in.conj()[None, :]))
    out = channel(rho)
    u_out = np.exp(1j * phi * np.arange(out.dim))
    expected = u_out[:, None] * out.mat * u_out.conj()[None, :]
    assert rotated.dim == out.dim
    assert np.abs(rotated.mat - expected).max() <= 1e-12
    assert np.abs(out.mat - out.mat.conj().T).max() <= 1e-12


def test_heterodyne_mp_on_vacuum_prepares_thermal():
    # Q-function sampling then re-preparation at scale z turns vacuum into
    # a thermal state of occupation z^2, whose diagonal has ratio z^2/(1 + z^2)
    vac = _displaced_thermal(0.0, 0.0, 48)
    out = apply_heterodyne_mp(vac, 0.8)
    assert out.trace() == pytest.approx(1.0, abs=1e-8)
    diag = np.diag(out.mat).real
    assert np.abs(diag[1:] / diag[:-1] / (0.64 / 1.64) - 1.0).max() <= 1e-12


def test_heterodyne_mp_scales_the_mean_amplitude():
    rho = _displaced_thermal(1.1, 0.3, 64)
    out = apply_heterodyne_mp(rho, 0.6)
    assert _mean_amp(out) == pytest.approx(0.6 * 1.1, rel=1e-7)


def test_heterodyne_mp_rejects_a_grid_that_misses_the_state():
    # the closed form has no quadrature grid: its one approximation is the
    # output cutoff, and about z^2 (<n> + 1) = 24 photons out of a 24-level
    # input spill past 47 levels
    rho = _displaced_thermal(0.5, 0.25, 24)
    with pytest.raises(TruncationError, match="lost trace"):
        apply_heterodyne_mp(rho, 4.0)


def test_heterodyne_score_needs_no_output_cutoff():
    # the built output of a 24-level state at z = 3 spills past its 47
    # levels, but the adjoint score has no output cutoff: it equals the
    # projection of the output built from the same state padded to 128 levels
    rho = _displaced_thermal(0.5, 0.25, 24)
    with pytest.raises(TruncationError, match="lost trace"):
        apply_heterodyne_mp(rho, 3.0)
    padded = np.zeros((128, 128), dtype=complex)
    padded[:24, :24] = rho.mat
    out = apply_heterodyne_mp(FockDensity(128, padded), 3.0)
    target = _ket(2.0, out.dim)
    (fidelity,), (trace,) = fock._score(GaussianChannel.heterodyne(3.0), rho.mat[None],
                                        np.array([2.0]))
    assert fidelity == pytest.approx(float(np.real(target.conj() @ out.mat @ target)), abs=1e-15)
    assert trace == rho.trace()


def _kernel_entry(z: float, d: int, m: int, a: int) -> float:
    """<a| Phi(|m><m+d|) |a+d> as a quadrature over |beta|, the angle
    integrating to 2 pi: <beta|m><m+d|beta> <a|z beta><z beta|a+d> / pi."""
    z = mpmath.mpf(z)
    norm = mpmath.sqrt(mpmath.factorial(m) * mpmath.factorial(m + d)
                       * mpmath.factorial(a) * mpmath.factorial(a + d))
    radial = mpmath.quad(lambda r: 2 * r * mpmath.exp(-(1 + z * z) * r * r)
                         * r ** (2 * m + d) * (z * r) ** (2 * a + d), [0, mpmath.inf])
    return float(radial / norm)


@pytest.mark.parametrize(
    "z, d, m, a",
    [(0.7, 0, 0, 0), (0.7, 0, 3, 5), (1.3, 2, 4, 1), (1.3, 7, 8, 22), (0.7, 15, 0, 0),
     (1.3, 15, 0, 15), (0.0, 0, 5, 0), (0.0, 0, 5, 3), (0.0, 4, 2, 0)],
)
def test_heterodyne_kernel_is_the_beta_integral(z, d, m, a):
    # d = 15 is the largest order inside a 16-level cutoff; at z = 0 only vacuum survives
    kernel = fock._heterodyne_kernel(z, 16)
    assert len(kernel) == 16 and kernel[d].shape == (16 - d, 31 - d)
    assert kernel[d][m, a] == pytest.approx(_kernel_entry(z, d, m, a), rel=1e-13, abs=1e-16)


# ---------------------------------------------------------------------------
# averaged fidelity
# ---------------------------------------------------------------------------


def test_identity_protocol_matches_closed_form():
    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    got = avg_fidelity_numeric(ens, GaussianChannel.identity(), dim=48, radial_nodes=64)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_ratio_form_is_scale_invariant(monkeypatch):
    # scaling Q's diagonal by 0.37 scales every score and trace by 0.37^2
    ens, spec = NoisyEnsemble(1.0, 1.0, 1.5), FilterSpec(k_cut=20, y=1.1)
    plain = avg_fidelity_numeric(ens, spec, dim=32, radial_nodes=48)
    diagonal = fock._filter_diagonal
    monkeypatch.setattr(fock, "_filter_diagonal", lambda spec, dim: 0.37 * diagonal(spec, dim))
    scaled = avg_fidelity_numeric(ens, spec, dim=32, radial_nodes=48)
    assert scaled == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("angular_nodes", [0, -3])
def test_average_rejects_an_empty_angular_grid(angular_nodes):
    with pytest.raises(DomainError, match="angular_nodes"):
        avg_fidelity_numeric(NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity(), dim=32,
                             angular_nodes=angular_nodes)


@pytest.mark.parametrize("form", [float, str])
@pytest.mark.parametrize("size", ["dim", "radial_nodes", "angular_nodes"])
def test_average_rejects_a_size_that_is_not_an_integer(size, form):
    # the stack kept for the integer sizes must not answer for their float twins
    ens, unit = NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity()
    sizes = {"dim": 32, "radial_nodes": 48, "angular_nodes": 2}
    avg_fidelity_numeric(ens, unit, **sizes)
    with pytest.raises(DomainError, match=f"{size} must be an integer"):
        avg_fidelity_numeric(ens, unit, **{**sizes, size: form(sizes[size])})


@pytest.mark.parametrize("dim,nodes", [(32.0, 48), ("32", 48), (32, 48.0), (32, "48")])
def test_prior_states_reject_a_size_that_is_not_an_integer(dim, nodes):
    fock.prior_states(1.0, 1.0, 32, 48)
    with pytest.raises(DomainError, match="must be an integer >= 2"):
        fock.prior_states(1.0, 1.0, dim, nodes)


def test_average_rejects_a_non_finite_rule(recwarn):
    # numpy's rule has NaN weights from about 190 nodes up; the floor would drop them all
    with pytest.raises(DomainError, match="1000-node"):
        avg_fidelity_numeric(NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity(), dim=32,
                             radial_nodes=1000)
    assert not recwarn.list


def test_laguerre_rule_rejects_a_zeroth_moment_off_by_more_than_1e_12(monkeypatch):
    t, w = np.polynomial.laguerre.laggauss(23)
    fock._laguerre_rule.cache_clear()
    # the rule imports laggauss on each computed size, so the module's attribute is the one read
    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", lambda n: (t, w * (1.0 + 2e-12)))
    with pytest.raises(DomainError, match="23-node"):
        fock._laguerre_rule(23)
    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", lambda n: (t, w * (1.0 + 5e-13)))
    assert np.array_equal(fock._laguerre_rule(23)[1], w * (1.0 + 5e-13))
    fock._laguerre_rule.cache_clear()


def test_the_checked_in_rule_integrates_every_monomial_it_must_without_numpy():
    # a 48-node Gauss-Laguerre rule is exact to degree 95: sum_i w_i t_i^k = k!,
    # summed here exactly over the table's floats (worst 1.19e-13, at k = 84)
    t, w = [Fraction(x) for x in fock._RADIAL_T], [Fraction(x) for x in fock._RADIAL_W]
    assert len(t) == len(w) == fock._RADIAL_NODES
    for k in range(2 * fock._RADIAL_NODES):
        moment = sum(wi * ti**k for wi, ti in zip(w, t))
        assert abs(float(moment / math.factorial(k)) - 1.0) <= 2e-13, k


def test_the_checked_in_rule_is_numpys_bit_for_bit_and_is_the_one_served():
    t, w = np.polynomial.laguerre.laggauss(fock._RADIAL_NODES)
    ulps = [int(np.max(np.abs(a - np.array(b)) / np.spacing(np.abs(a))))
            for a, b in ((t, fock._RADIAL_T), (w, fock._RADIAL_W))]
    assert ulps == [0, 0], f"laggauss({fock._RADIAL_NODES}) differs by {ulps} ulps"
    served = fock._laguerre_rule(fock._RADIAL_NODES)
    assert np.array_equal(served[0], t) and np.array_equal(served[1], w)


# ---------------------------------------------------------------------------
# the prior-state stack
# ---------------------------------------------------------------------------

_NODES = 37  # its stack keeps 26 nodes, not a multiple of the chunk, so the last chunk is partial


def _kept(nodes: int) -> int:
    """The nodes a prior stack keeps: the fewest whose dropped tail weighs at most 2^-70."""
    w = np.polynomial.laguerre.laggauss(nodes)[1]
    return next(k for k in range(nodes + 1) if math.fsum(w[k:]) <= 2.0**-70)


@pytest.mark.parametrize("mu", [0.7, 1e12], ids=["thermal", "tiny-nbar"])
def test_prior_states_match_per_node_densities(mu):
    radii, weights, states = fock.prior_states(20.0, mu, 48, _NODES)
    t, w = np.polynomial.laguerre.laggauss(_NODES)
    kept = _kept(_NODES)
    assert np.array_equal(radii, np.sqrt(t[:kept] / 20.0)) and np.array_equal(weights, w[:kept])
    assert states.shape == (kept, 48, 48) and states.dtype == float
    # one node at a time, inside the cutoff or far past it, the builder gives the same bits
    for radius, state in zip(radii, states):
        assert np.array_equal(state, _displaced_thermal(radius, 1.0 / mu, 48).mat)


def test_prior_states_refuse_a_cutoff_past_128_levels():
    # past 128 levels a far node's start values underflow where its exact entries
    # do not: at 512 levels entry (511, 511) of a node at r^2/s = 760 reads 0.0
    # against 1.7e-78
    assert fock.prior_states(1.0, 1.0, 128, 20)[2].shape == (_kept(20), 128, 128)
    with pytest.raises(DomainError, match="128 levels"):
        fock.prior_states(1.0, 1.0, 129, 20)
    with pytest.raises(DomainError, match="128 levels"):
        avg_fidelity_numeric(NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity(), dim=512)


def test_prior_states_are_read_only():
    for array in fock.prior_states(1.0, 1.0, 16, 20):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("nodes, kept", [(32, 24), (48, 30), (80, 39), (96, 43)])
def test_prior_states_drop_the_longest_tail_of_at_most_2_to_the_minus_70(nodes, kept):
    weights = fock.prior_states(1.0, 1.0, 16, nodes)[1]
    w = np.polynomial.laguerre.laggauss(nodes)[1]
    assert weights.size == kept and np.array_equal(weights, w[:kept])
    # the dropped weight is at most 2^-70, and dropping one more node would exceed it
    assert math.fsum(w[kept:]) <= 2.0**-70 < math.fsum(w[kept - 1 :])


def _full_rule_scores(ens: NoisyEnsemble, channel: GaussianChannel | FilterSpec
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, scores and output traces at 64 levels of every node of the uncut
    48-node rule."""
    t, w = np.polynomial.laguerre.laggauss(48)
    radii = np.sqrt(t / ens.lambda_prime)
    f, tr = fock._score(channel, fock._displaced_thermal_stack(radii, 1.0 / ens.mu, 64),
                        ens.g_prime * radii)
    return w, f, tr


@pytest.mark.parametrize("channel", [GaussianChannel.attenuator(0.6),
                                     GaussianChannel.amplifier(0.4),
                                     GaussianChannel.heterodyne(0.7)],
                         ids=["attenuator", "amplifier", "heterodyne"])
def test_a_cut_average_is_the_full_rule_one_within_the_tail_mass(channel):
    ens, kept = NoisyEnsemble(1.0, 1.0, 1.5), _kept(48)
    w, f, _ = _full_rule_scores(ens, channel)
    # a trace-preserving channel scores every node in [0, 1] ...
    assert f.min() >= 0.0 and f.max() <= 1.0 + 1e-15
    # ... so the dropped nodes carry at most their weight, 2^-70
    assert math.fsum(w[kept:] * f[kept:]) <= 2.0**-70
    full = math.fsum(w * f)
    cut = avg_fidelity_numeric(ens, channel, dim=64, radial_nodes=48)
    assert abs(cut - full) <= 2.0**-70 + 4.0 * np.finfo(float).eps * full


def test_a_cut_ratio_form_filter_stays_within_its_stated_bound():
    ens, spec, kept = NoisyEnsemble(1.0, 1.0, 1.5), FilterSpec(k_cut=40, y=0.75), _kept(48)
    w, f, tr = _full_rule_scores(ens, spec)
    max_q2 = 0.75 ** -80.0  # Q's largest coefficient squared, at n = 0
    # numerator and denominator each lose at most 2^-70 max q^2 ...
    assert math.fsum(w[kept:] * f[kept:]) <= math.fsum(w[kept:] * tr[kept:]) <= 2.0**-70 * max_q2
    # ... so a ratio in [0, 1] moves by at most that over the heralding weight, plus rounding
    weight = math.fsum(w * tr)
    cut = avg_fidelity_numeric(ens, spec, dim=64, radial_nodes=48)
    assert abs(cut - math.fsum(w * f) / weight) <= (2.0**-70 * max_q2 / weight
                                                    + 4.0 * np.finfo(float).eps)


_CHUNKED_CHANNELS = [("squeezer", GaussianChannel.amplifier(0.4)),
                     ("filter", FilterSpec(k_cut=20, y=1.1)),
                     ("heterodyne", GaussianChannel.heterodyne(0.7))]


@pytest.mark.parametrize(
    "channel, angular_nodes",
    # the radial average scores every node at once, so only the builder's mirror
    # reads the chunk there; the angular re-check scores its rotated copies by chunk
    [pytest.param(channel, 1, id=name) for name, channel in _CHUNKED_CHANNELS]
    + [pytest.param(channel, 3, id=f"{name}-angular") for name, channel in _CHUNKED_CHANNELS],
)
def test_chunked_average_equals_an_unchunked_one(channel, angular_nodes, monkeypatch):
    assert _kept(_NODES) % fock._CHUNK != 0
    ens = NoisyEnsemble(2.0, 1.0, 1.3)

    def average(chunk: int) -> float:
        monkeypatch.setattr(fock, "_CHUNK", chunk)
        return avg_fidelity_numeric(ens, channel, dim=32, radial_nodes=_NODES,
                                    angular_nodes=angular_nodes)

    unchunked = average(_NODES)
    for chunk in (fock._CHUNK, 3):
        assert average(chunk) == pytest.approx(unchunked, abs=1e-15)


@pytest.mark.parametrize("channel", [GaussianChannel.attenuator(0.6),
                                     GaussianChannel.heterodyne(0.7)],
                         ids=["attenuator", "heterodyne"])
def test_a_radial_average_builds_its_adjoint_stack_once(channel, monkeypatch):
    builds = []
    build = fock._displaced_thermal_stack

    def counted(radii: np.ndarray, nbar: float, dim: int) -> np.ndarray:
        builds.append(radii.size)
        return build(radii, nbar, dim)

    monkeypatch.setattr(fock, "_displaced_thermal_stack", counted)
    fock.prior_states.cache_clear()
    ens = NoisyEnsemble(1.0, 1.0, 1.5)
    kept = _kept(48)
    avg_fidelity_numeric(ens, channel, dim=32, radial_nodes=48)
    assert builds == [kept, kept]  # the prior stack, then one adjoint over every target
    avg_fidelity_numeric(ens, channel, dim=32, radial_nodes=48)
    assert builds == [kept, kept, kept]  # the prior stack is cached


# ---------------------------------------------------------------------------
# adjoint-picture scoring against the built output state
# ---------------------------------------------------------------------------

_EQUIV_DIM = 32


@pytest.mark.parametrize(
    "channel, apply",
    [
        (GaussianChannel.identity(), lambda rho: rho),
        (GaussianChannel.amplifier(0.4), lambda rho: apply_two_mode_squeezer(rho, 0.4, dim_anc=24)),
        (GaussianChannel.attenuator(0.6), lambda rho: apply_attenuator(rho, 0.6)),
        # theta = 0 is the identity, scored rank one; towards pi/2 the adjoint
        # stack runs at nbar = tan^2 theta, 1e18 and 2.7e32
        (GaussianChannel.attenuator(0.0), lambda rho: apply_attenuator(rho, 0.0)),
        (
            GaussianChannel.attenuator(math.pi / 2 - 1e-9),
            lambda rho: apply_attenuator(rho, math.pi / 2 - 1e-9),
        ),
        (GaussianChannel.attenuator(math.pi / 2), lambda rho: apply_attenuator(rho, math.pi / 2)),
        (FilterSpec(k_cut=20, y=1.1), lambda rho: apply_filter(rho, FilterSpec(k_cut=20, y=1.1))),
        (GaussianChannel.heterodyne(0.7), lambda rho: apply_heterodyne_mp(rho, 0.7)),
        # below gaussian._SMALL_Z the score is the z -> 0 limit
        (GaussianChannel.heterodyne(0.0), lambda rho: apply_heterodyne_mp(rho, 0.0)),
        (GaussianChannel.heterodyne(1e-30), lambda rho: apply_heterodyne_mp(rho, 1e-30)),
    ],
    ids=["identity", "squeezer", "attenuator", "attenuator-theta0", "attenuator-below-half-pi",
         "attenuator-half-pi", "filter", "heterodyne", "heterodyne-z0", "heterodyne-z1e-30"],
)
def test_adjoint_score_equals_projection_of_built_output(channel, apply):
    rho = _displaced_thermal(0.9 + 0.5j, 0.4, _EQUIV_DIM)
    amp = 0.8 - 0.6j
    (fidelity,), (trace,) = fock._score(channel, rho.mat[None], np.array([amp]))
    out = apply(rho)
    target = _ket(amp, out.dim)
    assert fidelity == pytest.approx(float(np.real(target.conj() @ out.mat @ target)), abs=1e-13)
    assert trace == pytest.approx(out.trace(), abs=1e-13)


def test_squeezer_output_guard_fires_on_a_short_ancilla():
    # amplified vacuum holds sinh^2(1.5) = 4.5 photons, and four ancilla levels
    # keep 1 - tanh^8(1.5) = 0.55 of its trace
    vac = _displaced_thermal(0.0, 0.0, 8)
    with pytest.raises(TruncationError, match="lost trace"):
        apply_two_mode_squeezer(vac, 1.5, dim_anc=4)


def test_an_amplifier_whose_cosh_r_overflows_is_a_domain_error():
    # cosh r passes the largest float near r = 710.5
    vac = _displaced_thermal(0.0, 0.0, 8)
    for build in (lambda: GaussianChannel.amplifier(800.0),
                  lambda: apply_two_mode_squeezer(vac, 800.0, dim_anc=4)):
        with pytest.raises(DomainError, match="overflows cosh r"):
            build()


@pytest.mark.parametrize("k_cut", [32, 40])
def test_filter_rank_must_lie_below_the_average_cutoff(k_cut):
    with pytest.raises(DomainError, match="below the cutoff"):
        avg_fidelity_numeric(NoisyEnsemble(1.0, 1.0, 2.0), FilterSpec(k_cut=k_cut, y=1.1), dim=32)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, dim", [
    (FilterSpec(15, 1e-10), 64),
    (FilterSpec(100, 0.03), 128),
    (FilterSpec(1, 1e10), 64),  # y^(n - k_cut) past n = k_cut would overflow
    (FilterSpec(3, 1e100), 128),
    # scaled by y^(-k_cut) instead, the coefficient at n = 0 would be 1e160,
    # 1e300, 1e400 and 1e154, whose square summed over 128 levels passes the
    # largest float
    (FilterSpec(16, 1e-10), 128),
    (FilterSpec(5, 1e-60), 128),
    (FilterSpec(40, 1e-10), 128),
    (FilterSpec(100, 0.029), 128),
])
def test_a_filter_inside_the_float_range_scores_without_overflow(spec, dim):
    # the diagonal's largest coefficient is 1, at n = k_cut for y >= 1 and at n = 0 below
    q = fock._filter_diagonal(spec, dim)
    assert q.max() == q[spec.k_cut if spec.y >= 1.0 else 0] == 1.0
    assert math.isfinite(avg_fidelity_numeric(NoisyEnsemble(1.0, 1.0, 1.5), spec, dim=dim))
    if spec.y <= 1e-10:
        # y -> 0 heralds the vacuum, whose ratio form is c1/(c1 + g'^2), the
        # classical threshold; the 48-node rule alone is off by 7.8e-11 at (0.5, 2, 1.6)
        for point in ((1.0, 1.0, 1.5), (0.5, 2.0, 1.6), (2.0, 0.5, 3.0), (1.0, 1.0, 0.5)):
            ens = NoisyEnsemble(*point)
            value = avg_fidelity_numeric(ens, spec, dim=dim)
            assert value == pytest.approx(formulas.cft(ens), rel=1e-10)


def test_scores_and_the_ratio_form_go_by_type_not_by_value():
    spec, channel = FilterSpec(2, 1.0), GaussianChannel(2.0, 1.0)
    assert spec == channel  # as tuples
    ens = NoisyEnsemble(1.0, 1.0, 1.5)
    radii, weights, states = fock.prior_states(1.0, 1.0, 32, fock._RADIAL_NODES)
    targets = ens.g_prime * radii
    # the filter keeps levels 0-2 of each state and of its target ket ...
    f_spec, tr_spec = fock._score(spec, states, targets)
    kets, head = fock._coherent_kets(targets, 32)[:, :3], states[:, :3, :3]
    assert tr_spec == pytest.approx(np.trace(head, axis1=1, axis2=2), rel=1e-14)
    assert f_spec == pytest.approx(np.einsum("pm,pmn,pn->p", kets, head, kets), rel=1e-13)
    # ... and the Gaussian channel keeps the trace, scoring against its adjoint
    f_chan, tr_chan = fock._score(channel, states, targets)
    adjoint = fock._displaced_thermal_stack(targets / 2.0, 1.0, 32) / 4.0
    assert tr_chan == pytest.approx(np.trace(states, axis1=1, axis2=2), rel=1e-14)
    assert f_chan == pytest.approx(np.einsum("pmn,pnm->p", states, adjoint), rel=1e-13)
    # only the filter is averaged in ratio form
    assert avg_fidelity_numeric(ens, spec, dim=32) == float(weights @ f_spec) / float(
        weights @ tr_spec)
    assert avg_fidelity_numeric(ens, channel, dim=32) == float(weights @ f_chan)


# ---------------------------------------------------------------------------
# the closed forms, against a dense sector exponential and the Laguerre series
# ---------------------------------------------------------------------------

_DENSE = 512  # far enough from every state below that its reflection is invisible


def _sector_exponential(couplings: np.ndarray, angle: float) -> np.ndarray:
    """exp(angle G) for the antisymmetric tridiagonal G[j+1, j] = couplings[j]
    = -G[j, j+1], from the spectrum of the Hermitian iG."""
    g = np.diag(couplings, -1) - np.diag(couplings, 1)
    w, v = np.linalg.eigh(1j * g)
    return ((v * np.exp(-1j * angle * w)) @ v.conj().T).real


def _dense_displaced_thermal(r: float, nbar: float, dim: int) -> np.ndarray:
    d = _sector_exponential(np.sqrt(np.arange(1.0, _DENSE)), r)  # a^dag - a
    q = nbar / (1.0 + nbar)
    return ((d * q ** np.arange(_DENSE) / (1.0 + nbar)) @ d.T)[:dim, :dim]


@pytest.mark.parametrize("amp", [0.5, 1.5, 3.0])
def test_displacement_first_column_is_the_coherent_ket(amp):
    d = _sector_exponential(np.sqrt(np.arange(1.0, _DENSE)), amp)
    assert np.abs(d[:64, 0] - _ket(amp, 64)).max() <= 1e-14


@pytest.mark.parametrize("r, nbar, dim", [(3.0, 2.0, 48), (1.3, 1.0, 24), (5.0, 0.1, 64),
                                          (2.0, 1e-12, 32)])
def test_displaced_thermal_stack_is_the_dense_displacement(r, nbar, dim):
    # a truncated generator reflects at its cutoff; at 512 levels the entries
    # inside dim are exact, and the stack must match them, not only in trace
    stack = fock._displaced_thermal_stack(np.array([r]), nbar, dim)[0]
    assert np.abs(stack - _dense_displaced_thermal(r, nbar, dim)).max() <= 1e-14


def _laguerre_entry(r: float, nbar: float, m: int, n: int) -> float:
    """rho[m, n], m >= n, of D(r) rho_th(nbar) D(r)^dag as its Laguerre series."""
    r, nbar, s = mpmath.mpf(r), mpmath.mpf(nbar), 1 + mpmath.mpf(nbar)
    return float(mpmath.exp(-r * r / s) * mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
                 * nbar**n * r ** (m - n) * s ** -(m + 1)
                 * mpmath.laguerre(n, m - n, -r * r / (nbar * s)))


@pytest.mark.parametrize(
    "r, nbar, m, n",
    [(1.3, 1.0, 5, 2), (3.0, 2.0, 40, 30), (0.5, 3.0, 30, 30), (0.2, 1e-12, 3, 1),
     (1.0, 1e-12, 20, 10), (6.0, 1e-12, 47, 47), (12.0, 0.5, 47, 40), (12.0, 2.0, 47, 30)],
)
def test_displaced_thermal_stack_is_the_laguerre_series(r, nbar, m, n):
    # nbar = 1e-12 is the pure-input sentinel; r = 12 puts r^2 = 144 far past 48 levels
    with mpmath.workdps(40):
        exact = _laguerre_entry(r, nbar, m, n)
    stack = fock._displaced_thermal_stack(np.array([r]), nbar, 48)[0]
    assert stack[m, n] == stack[n, m] == pytest.approx(exact, rel=1e-14)


def test_squeezer_weights_match_the_negative_binomial_amplitudes():
    # amplified |n> is sum_k W[n, k]^2 |n+k><n+k|, and W[n, k] = <n+k, k| S(r) |n, 0>
    # is column 0 of the sector {|n+k, k>} exponential, couplings sqrt((n+k) k)
    r, dim, dim_anc = 0.3, 16, 64
    k = np.arange(1.0, 2 * dim_anc)  # tanh^64 r is 1e-34, so no reflection reaches the cut
    for n in range(dim):
        fock_n = FockDensity(dim, np.diag(np.eye(dim)[n]))
        out = np.diag(apply_two_mode_squeezer(fock_n, r, dim_anc).mat).real
        column = _sector_exponential(np.sqrt((n + k) * k), r)[:dim_anc, 0]
        assert np.abs(out[n : n + dim_anc] - column**2).max() <= 1e-14


def test_squeezer_weights_row_zero_is_amplified_vacuum():
    # the weights that verify reads amplified vacuum off, against the output the builder makes
    vac = _displaced_thermal(0.0, 0.0, 8)
    out = np.diag(apply_two_mode_squeezer(vac, 0.5, dim_anc=48).mat).real
    assert np.abs(fock._squeezer_weights(0.5, 1, 48)[0] ** 2 - out[:48]).max() <= 1e-15
    assert not out[48:].any()


def test_rotated_multiplies_in_place_on_a_new_array():
    # the phase multiply runs in place on the first product, never on the input
    states = fock._displaced_thermal_stack(np.array([0.4, 1.1, 2.3]), 0.5, 24)
    states.flags.writeable = False
    before = states.copy()
    for phi in (0.7, np.array([0.3, -1.2, 2.9])):
        ph = np.exp(1j * np.multiply.outer(phi, np.arange(24)))
        reference = ph[..., :, None] * states * ph.conj()[..., None, :]
        assert np.array_equal(fock._rotated(states, phi), reference)
    assert np.array_equal(states, before)
    assert fock._rotated(states, 0.0) is states


def test_attenuator_closed_form_is_the_sector_exponential():
    # sector n of theta(a^dag b - b^dag a), couplings sqrt(j(n - j + 1)), at angle -theta
    theta, dim = 0.6, 32
    weights = fock._attenuator_weights(theta, dim)
    for n in range(1, dim):
        j = np.arange(1.0, n + 1)
        column = _sector_exponential(np.sqrt(j * (n - j + 1.0)), -theta)[:, 0]
        assert np.abs(weights[n, : n + 1] - column).max() <= 1e-14
        assert not weights[n, n + 1 :].any()


def test_laguerre_rule_integrates_monomials():
    t, w = fock._laguerre_rule(80)
    for k in range(21):
        assert float(w @ t**k) == pytest.approx(math.factorial(k), rel=1e-12)
