import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adr_lab import (
    ConstantRate,
    InputError,
    NumericError,
    PhotolysisK1,
    PointSource,
    ReactionNetwork,
)
from adr_lab.chemistry import reaction_rates_field
from adr_lab.cli import bundled_config_path, parse_config
from oracles import bundled_ozone, classify_H, compute_dbar, reaction_rates

DAY = 86400.0
NOON = 12 * 3600.0
K1 = PhotolysisK1()


def test_photolysis_noon_peak():
    # closed form: 1e-5 * exp(7 * sin(pi/2)**0.2) = 1e-5 * e**7
    assert K1(NOON) == pytest.approx(1e-5 * math.exp(7.0), rel=1e-15)
    assert abs(K1(NOON) - 1.0966e-2) < 1e-5


def test_photolysis_night_floor():
    assert K1(2 * 3600.0) == 1e-40
    assert K1(0.0) == 1e-40
    assert K1(23 * 3600.0) == 1e-40


def test_photolysis_day_window_half_open():
    # dawn: sine is 0 and 0**0.2 == 0, so the day branch starts at 1e-5
    assert K1(4 * 3600.0) == 1e-5
    # dusk: 20:00 itself is already night
    assert K1(20 * 3600.0) == 1e-40
    assert K1(20 * 3600.0 - 1.0) > 1e-6


def test_photolysis_rejects_negative_time():
    with pytest.raises(InputError):
        K1(-1.0)


@given(st.integers(0, 86400 * 64 - 1).map(lambda n: n / 64.0),
       st.integers(1, 30))
def test_photolysis_exact_periodicity(t, days):
    # t on a 1/64 s lattice keeps t + days*86400 exactly representable
    assert K1(t + days * DAY) == K1(t)


@given(st.floats(0.0, 30 * DAY, allow_nan=False))
def test_photolysis_bounds(t):
    v = K1(t)
    assert 0.0 < v <= 1e-5 * math.exp(7.0)


def test_photolysis_noon_is_maximum_sample():
    samples = [K1(600.0 * i) for i in range(144)]
    assert max(samples) == K1(NOON)


def test_constant_rate():
    r = ConstantRate(2.5)
    assert r(0.0) == 2.5 and r(1e9) == 2.5
    assert r.bound == 2.5
    assert ConstantRate(0.0).bound == 1.0  # positive bound even for a dead reaction
    with pytest.raises(InputError):
        ConstantRate(-1.0)


def test_photolysis_bound_attribute():
    assert PhotolysisK1().bound == 1e-5 * math.exp(7.0)


def _two_species_chain(k=0.5):
    # A -> B at constant rate k; monomolecular
    return ReactionNetwork(
        species=("A", "B"),
        loss=np.array([[1], [0]]),
        gain=np.array([[0], [1]]),
        rates=(ConstantRate(k),),
        sources=(),
    )


def test_network_validation():
    with pytest.raises(InputError):
        ReactionNetwork(
            species=("A",), loss=np.array([[1]]), gain=np.array([[-1]]),
            rates=(ConstantRate(1.0),), sources=(),
        )
    with pytest.raises(InputError):
        ReactionNetwork(
            species=("A",), loss=np.array([[1]]), gain=np.array([[0]]),
            rates=(), sources=(),
        )


def test_stoichiometry_is_gain_minus_loss():
    net = bundled_ozone(k2=1e-16)
    expected = np.array([[1, -1], [-1, 1], [1, -1]])
    np.testing.assert_array_equal(net.stoichiometry, expected)
    assert net.species == ("NO", "NO2", "O3")


def test_rate_values_enforce_bounds():
    class Bad:
        bound = 1.0
        def __call__(self, t):
            return 2.0

    net = ReactionNetwork(
        species=("A",), loss=np.array([[1]]), gain=np.array([[0]]),
        rates=(Bad(),), sources=(),
    )
    with pytest.raises(NumericError):
        net.rate_values(0.0)


def test_reaction_rates_hand_computed_ozone():
    net = bundled_ozone(k2=1e-16)
    c = np.array([2.0, 3.0, 5.0])  # NO, NO2, O3
    t = NOON
    k1 = K1(t)
    g1 = k1 * c[1]
    g2 = 1e-16 * c[0] * c[2]
    expected = np.array([g1 - g2, g2 - g1, g1 - g2])
    np.testing.assert_allclose(reaction_rates(net, t, c), expected, rtol=1e-14)


def test_reaction_rates_zero_concentration_zero_exponent():
    # 0**0 = 1: a species absent from a reaction does not zero its rate
    net = _two_species_chain(k=2.0)
    out = reaction_rates(net, 0.0, [3.0, 0.0])
    np.testing.assert_allclose(out, [-6.0, 6.0])


def test_reaction_rates_reactantless_reaction_is_pure_source_term():
    # empty product over reactants is 1, so dc/dt = gain * h
    net = ReactionNetwork(
        species=("A",), loss=np.array([[0]]), gain=np.array([[1]]),
        rates=(ConstantRate(4.0),), sources=(),
    )
    np.testing.assert_allclose(reaction_rates(net, 0.0, [0.0]), [4.0])


def test_point_source_applies_only_at_its_cell():
    net = bundled_ozone(k2=0.0, no_emission=7.0, cell=(1, 1, 1))
    c = np.zeros(3)
    at_cell = reaction_rates(net, 0.0, c, cell=(1, 1, 1))
    elsewhere = reaction_rates(net, 0.0, c, cell=(2, 1, 1))
    assert at_cell[0] == 7.0  # NO source
    assert elsewhere[0] == 0.0


def test_reaction_rates_rejects_non_finite_input():
    net = _two_species_chain()
    with pytest.raises(InputError):
        reaction_rates(net, 0.0, [np.inf, 0.0])


def test_field_rates_match_pointwise():
    net = bundled_ozone(k2=1e-3, no_emission=5.0, cell=(1, 2, 1))
    rng = np.random.default_rng(42)
    conc = rng.uniform(0.0, 4.0, size=(3, 4, 4, 4))
    t = NOON
    rates = reaction_rates_field(net, t, conc)
    for cell in [(0, 0, 0), (1, 2, 1), (2, 3, 1), (3, 3, 3)]:
        expected = reaction_rates(net, t, conc[(slice(None),) + cell], cell=cell)
        np.testing.assert_allclose(rates[(slice(None),) + cell], expected,
                                   rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_powers_are_products_multiplied_left_to_right(order):
    # order A -> B: the rate is k * (c * c * ... * c), the power multiplied out
    # left to right before k, bit for bit in the field rates and the oracle
    k = 3.7e-13
    net = ReactionNetwork(species=("A", "B"), loss=np.array([[order], [0]]),
                          gain=np.array([[0], [1]]), rates=(ConstantRate(k),), sources=())
    conc = np.random.default_rng(order).uniform(0.0, 1e12, size=(2, 6, 5, 4))
    expected = np.array([k * math.prod([c] * order) for c in conc[0].ravel().tolist()])
    rates = reaction_rates_field(net, 0.0, conc)
    assert rates[1].tobytes() == expected.reshape(conc.shape[1:]).tobytes()
    assert rates[0].tobytes() == (-order * expected).reshape(conc.shape[1:]).tobytes()
    for n, cell in enumerate(np.ndindex(conc.shape[1:])):
        pointwise = reaction_rates(net, 0.0, conc[(slice(None), *cell)])
        assert pointwise.tobytes() == np.array([-order * expected[n], expected[n]]).tobytes()


def test_classify_H():
    holds, beta = classify_H(_two_species_chain())
    assert holds and beta == 1
    # all-gain network: nothing is consumed, beta = 0
    net0 = ReactionNetwork(
        species=("A",), loss=np.array([[0]]), gain=np.array([[2]]),
        rates=(ConstantRate(1.0),), sources=(),
    )
    holds, beta = classify_H(net0)
    assert holds and beta == 0
    holds, beta = classify_H(bundled_ozone(k2=1e-16))  # NO + O3 consumes two molecules
    assert not holds


def test_compute_dbar_hand_value():
    # A -> B, rate bound d = 0.5: gain*d and (gain-loss)*d have Frobenius
    # norms 0.5 and 0.5*sqrt(2); with r = 1 the sqrt(2(r-1)) factor is 0.
    est = compute_dbar(_two_species_chain(0.5))
    assert est.beta == 1
    assert est.dbar == 0.0


def test_compute_dbar_two_reactions():
    # A -> B and B -> A, both bound 0.5; r = 2 so the prefactor is sqrt(2)
    net = ReactionNetwork(
        species=("A", "B"),
        loss=np.array([[1, 0], [0, 1]]),
        gain=np.array([[0, 1], [1, 0]]),
        rates=(ConstantRate(0.5), ConstantRate(0.5)),
        sources=(),
    )
    est = compute_dbar(net)
    gain_d = np.array([[0, 0.5], [0.5, 0]])
    sto_d = np.array([[-0.5, 0.5], [0.5, -0.5]])
    expected = math.sqrt(2.0) * max(
        np.linalg.norm(gain_d), np.linalg.norm(sto_d)
    )
    assert est.dbar == pytest.approx(expected, rel=1e-14)


def test_compute_dbar_rejects_bimolecular():
    with pytest.raises(ValueError, match="monomolecular"):
        compute_dbar(bundled_ozone(k2=1e-16))


def test_ozone_network_unit_arguments():
    # the bundled network in model units: with 1e7 cm^3 cells the per-cm^3
    # NO + O3 constant shrinks by 1e7 and the NO emission grows by 1e7
    net = parse_config(bundled_config_path("ozone-3d.yaml")).network
    assert isinstance(net.rates[0], PhotolysisK1)
    assert net.rates[1].value == pytest.approx(1e-23, rel=1e-15)
    assert net.sources == (PointSource(species=0, cell=(1, 1, 1), rate=1e13),)
    net = bundled_ozone(k2=3.0, no_emission=9.0, cell=(2, 2, 2))
    assert isinstance(net.rates[0], PhotolysisK1)
    assert net.rates[1].value == 3.0
    assert net.sources == (PointSource(species=0, cell=(2, 2, 2), rate=9.0),)
