"""The non-contractive regime: admittance sources on a collapsed feeder.

Admittance-kind sources scale with the local voltage squared, so on a
deeply overloaded feeder the cells' best responses overshoot and the raw
Jacobi exchange is not a contraction.  The diagnostic must flag the raw
radius at/above one; the Newton step on the boundary converges to the
monolithic optimum with or without relaxation.
"""

import pytest

from gridweld import gjn
from gridweld.pdip import solve_centralized

from conftest import load


@pytest.fixture(scope="module")
def admittance_setup():
    nets, coups = load("case_micro_td_stressed")
    cen = solve_centralized(nets, coups, source_kind="admittance", norm="l2")
    assert cen.converged
    co = gjn.Coordinator(nets, coups, source_kind="admittance", norm="l2",
                         damping=0.5, max_epochs=300)
    rep = co.run()
    return cen, co, rep


def test_raw_exchange_converges_without_damping(admittance_setup):
    """The Jacobi map stays non-contractive here (see the radius test), yet
    the undamped run converges: its exchange takes Newton steps."""
    cen = admittance_setup[0]
    nets, coups = load("case_micro_td_stressed")
    co = gjn.Coordinator(nets, coups, source_kind="admittance", norm="l2",
                         max_epochs=60)
    rep = co.run()
    assert rep.status == "converged"
    assert abs(rep.objective - cen.objective) < 1e-6


def test_damped_exchange_recovers_centralized_optimum(admittance_setup):
    cen, co, rep = admittance_setup
    assert rep.status == "converged"
    assert abs(rep.objective - cen.objective) < 1e-4


def test_diagnostic_flags_raw_radius_at_or_above_one(admittance_setup):
    cen, co, rep = admittance_setup
    raw = co.spectral_radius(damping=1.0)
    relaxed = co.spectral_radius()       # rates the configured 0.5 relaxation
    assert raw >= 1.0
    assert relaxed < 1.0


def test_damped_radius_matches_eigenvalue_shift():
    """On contractive cases relaxation maps each factor toward one:
    the damped radius never exceeds (1 - g) + g * raw for real spectra."""
    nets, coups = load("case_micro_td")
    co = gjn.Coordinator(nets, coups, source_kind="current", norm="l2")
    rep = co.run()
    assert rep.converged
    raw = co.spectral_radius(damping=1.0)
    half = co.spectral_radius(damping=0.5)
    assert half <= 0.5 + 0.5 * raw + 1e-9
    assert half < 1.0
