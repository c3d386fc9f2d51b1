"""Byte-identity gate for the event simulator.

``simulate_network`` draws the same random stream as the verbatim
dataclass/``rng.choice`` version kept in
:mod:`benchmarks.seed_reference`, so every ``EventSimResult`` field must
match it exactly — same dtype, same bytes, no tolerance — on every path
through the event loop: think and zero-think classes, multi-job
populations, background flows, a saturated bus, with and without a
warm-up, and on the network arrays a server eventsim window hands in.
"""

import dataclasses

import numpy as np
import pytest

from benchmarks.seed_reference import seed_simulate_network
from repro.queueing import eventsim
from repro.queueing.arrays import NetworkArrays
from repro.queueing.network import (
    BackgroundFlow,
    ControllerSpec,
    JobClassSpec,
    QueueingNetwork,
)
from repro.sim.config import table2_config
from repro.sim.server import FrequencySettings, ServerSimulator
from repro.units import NS
from repro.workloads import get_workload
from tests.conftest import make_network

HORIZON_S = 1e-4
SEEDS = (0, 5, 123)


def _copy(arrays: NetworkArrays, **overrides) -> NetworkArrays:
    fields = dict(
        routing=arrays.routing,
        bank_service=arrays.bank_service,
        bus_transfer=arrays.bus_transfer,
        bank_ctrl=arrays.bank_ctrl,
        bg_rates=arrays.bg_rates,
        population=arrays.population,
        think_s=arrays.think_s,
        names=arrays.names,
    )
    fields.update(overrides)
    return NetworkArrays(**fields)


def _zero_think():
    """Every think mean zero: the path that takes no think draw."""
    arrays = NetworkArrays.from_network(make_network(think_ns=0)).update(think=0.0)
    assert not arrays.think_s.any()
    return arrays


def _population():
    net = make_network(think_ns=15)
    classes = tuple(dataclasses.replace(c, population=4) for c in net.classes)
    return QueueingNetwork(classes=classes, controllers=net.controllers)


def _background():
    net = make_network(n_banks=8, n_controllers=2)
    flows = tuple(BackgroundFlow(b, 4e6) for b in range(net.total_banks))
    return QueueingNetwork(
        classes=net.classes, controllers=net.controllers, background=flows
    )


def _uneven_routing():
    """Skewed per-class rows whose CDFs do not end on an exact 1.0."""
    n_banks = 8
    rows = np.random.default_rng(17).dirichlet(np.ones(n_banks), size=4)
    classes = tuple(
        JobClassSpec(
            name=f"core{i}",
            think_time_s=20 * NS,
            cache_time_s=7.5 * NS,
            bank_probs=tuple(rows[i]),
        )
        for i in range(4)
    )
    controller = ControllerSpec(
        bank_service_s=tuple(25 * NS for _ in range(n_banks)),
        bus_transfer_s=5 * NS,
    )
    return QueueingNetwork(classes=classes, controllers=(controller,))


def _server_window():
    """The network arrays of one ``engine="eventsim"`` operating point."""
    config = table2_config(16)
    sim = ServerSimulator(config, get_workload("MIX1"), seed=3, engine="eventsim")
    captured = []
    real = eventsim.simulate_network

    def capture(arrays, *args, **kwargs):
        captured.append(_copy(arrays))
        return real(arrays, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eventsim, "simulate_network", capture)
        sim.solve_operating_point(FrequencySettings.all_max(config), np.zeros(16))
    assert captured, "the eventsim engine never called simulate_network"
    return captured[0]


NETWORKS = {
    "defaults": make_network,
    "zero-think": _zero_think,
    "population": _population,
    "background": _background,
    "slow-bus": lambda: make_network(n_classes=8, think_ns=5, service_ns=5, bus_ns=50),
    "uneven-routing": _uneven_routing,
    "server-window": _server_window,
}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def network(request):
    return NETWORKS[request.param]()


def _assert_same_bytes(new, ref):
    for f in dataclasses.fields(ref):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b), f.name
            assert np.array(a).tobytes() == np.array(b).tobytes(), f.name


@pytest.mark.parametrize("warmup_fraction", [0.0, 0.25])
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_reference_bytes(network, seed, warmup_fraction):
    kwargs = dict(
        horizon_s=HORIZON_S, warmup_s=warmup_fraction * HORIZON_S, seed=seed
    )
    ref = seed_simulate_network(network, **kwargs)
    assert ref.completions.sum() > 0
    _assert_same_bytes(eventsim.simulate_network(network, **kwargs), ref)


BAD_ROWS = {
    "sums-to-1.5": (np.full(8, 1.5 / 8), "sum to 1"),
    "negative-entry": (np.r_[-0.125, 0.25, np.full(6, 0.875 / 6)], "non-negative"),
    "nan-entry": (np.r_[np.nan, np.full(7, 1.0 / 7)], "NaN"),
}


def _assert_both_raise(arrays, match):
    with pytest.raises(ValueError, match=match):
        eventsim.simulate_network(arrays, horizon_s=1e-5)
    with pytest.raises(ValueError, match=match):
        seed_simulate_network(arrays, horizon_s=1e-5)


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_invalid_routing_row_raises(case):
    """Each routing row is checked once per call, as ``rng.choice`` did."""
    row, match = BAD_ROWS[case]
    base = NetworkArrays.from_network(make_network())
    routing = base.routing.copy()
    routing[0] = row
    _assert_both_raise(_copy(base, routing=routing), match)


def test_negative_bank_service_raises():
    """``rng.exponential``'s check on its mean survives the rewrite."""
    arrays = NetworkArrays.from_network(make_network()).update(s_m=-25 * NS)
    _assert_both_raise(arrays, "scale < 0")
