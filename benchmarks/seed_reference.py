"""Verbatim seed (pre-PR2) implementations of the hot kernels.

These are byte-for-byte copies of ``repro.queueing.mva.solve_mva`` and
``repro.core.optimizer.solve_degradation`` as they stood before the
array-native refactor.  They exist for two reasons:

* the golden-parity suite (:mod:`tests.test_golden_parity`) asserts the
  refactored kernels reproduce these *exactly* (the refactor is an
  implementation change, not a numerical one);
* ``benchmarks/run_pr2_bench.py`` times them as the "before" side of
  ``BENCH_PR2.json``.

``seed_simulate_network`` is likewise a verbatim copy of
``repro.queueing.eventsim.simulate_network`` as it stood before the
flat-list rewrite (dataclass stations, ``rng.choice`` routing);
:mod:`tests.queueing.test_eventsim_reference` asserts the rewrite
returns the same bytes for the same seed.

Do not "improve" this module — its value is that it does not change.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.model import FastCapInputs
from repro.core.optimizer import DegradationSolution
from repro.errors import ConfigurationError, ConvergenceError
from repro.queueing.arrays import NetworkArrays
from repro.queueing.eventsim import EventSimResult
from repro.queueing.mva import MVASolution
from repro.queueing.network import QueueingNetwork

_RHO_CAP = 0.995
_BG_RHO_CAP = 0.95

_D_TOL = 1e-10
_MAX_BISECTIONS = 200


def seed_solve_mva(
    network: QueueingNetwork,
    max_iterations: int = 2000,
    tolerance: float = 1e-10,
    damping: float = 0.5,
    initial_throughput=None,
) -> MVASolution:
    """The seed AMVA fixed point (pre-refactor ``solve_mva``)."""
    n = network.n_classes
    n_banks = network.total_banks

    routing = network.routing_matrix()  # (n, B)
    bank_service = network.bank_service_vector()  # (B,)
    bus_transfer = network.bus_transfer_vector()  # (K,)
    bank_ctrl = network.bank_controller_map()  # (B,)
    bg_rates = network.background_rate_vector()  # (B,)
    population = np.array([c.population for c in network.classes], dtype=float)
    think = np.array(
        [c.think_time_s + c.cache_time_s for c in network.classes], dtype=float
    )
    n_controllers = len(network.controllers)
    total_pop = float(population.sum())

    visit = np.zeros((n, n_controllers))
    for k in range(n_controllers):
        visit[:, k] = routing[:, bank_ctrl == k].sum(axis=1)

    if initial_throughput is not None:
        x = np.asarray(initial_throughput, dtype=float).copy()
    else:
        x = population / (think + bank_service.mean() + bus_transfer.mean())

    r_bank = np.tile(bank_service, (n, 1))
    q_per_class_bank = x[:, None] * routing * r_bank

    last_rel_change = np.inf
    current_damping = damping
    for iteration in range(1, max_iterations + 1):
        if iteration % 300 == 0:
            current_damping *= 0.5
        fg_bank_rates = x @ routing  # (B,)
        bank_rates = fg_bank_rates + bg_rates
        ctrl_rates = np.bincount(
            bank_ctrl, weights=bank_rates, minlength=n_controllers
        )

        rho_bus = np.minimum(ctrl_rates * bus_transfer, _RHO_CAP)
        bus_wait = bus_transfer * rho_bus / (2.0 * (1.0 - rho_bus))
        bus_wait = np.minimum(bus_wait, max(total_pop - 1.0, 0.0) * bus_transfer)

        s_eff = bank_service + bus_wait[bank_ctrl] + bus_transfer[bank_ctrl]

        rho_bg = np.minimum(bg_rates * s_eff, _BG_RHO_CAP)
        s_fg = s_eff / (1.0 - rho_bg)

        bank_queue_total = q_per_class_bank.sum(axis=0)  # (B,)
        self_seen = q_per_class_bank / population[:, None]
        queue_seen = np.maximum(bank_queue_total[None, :] - self_seen, 0.0)
        r_bank_new = s_fg[None, :] * (1.0 + queue_seen)

        r_mem = (routing * r_bank_new).sum(axis=1)
        turnaround = think + r_mem
        x_new = population / turnaround

        x_next = current_damping * x_new + (1.0 - current_damping) * x
        q_new = x_next[:, None] * routing * r_bank_new
        q_next = current_damping * q_new + (1.0 - current_damping) * q_per_class_bank

        denom = np.maximum(np.abs(x), 1e-300)
        last_rel_change = float(np.max(np.abs(x_next - x) / denom))
        x = x_next
        q_per_class_bank = q_next
        r_bank = r_bank_new

        if last_rel_change < tolerance:
            break
    else:
        raise ConvergenceError(
            f"AMVA did not converge in {max_iterations} iterations "
            f"(last relative change {last_rel_change:.3e})"
        )

    fg_bank_rates = x @ routing
    bank_rates = fg_bank_rates + bg_rates
    ctrl_rates = np.bincount(bank_ctrl, weights=bank_rates, minlength=n_controllers)
    rho_bus = np.minimum(ctrl_rates * bus_transfer, _RHO_CAP)
    bus_wait = bus_transfer * rho_bus / (2.0 * (1.0 - rho_bus))
    bus_wait = np.minimum(bus_wait, max(total_pop - 1.0, 0.0) * bus_transfer)
    s_eff = bank_service + bus_wait[bank_ctrl] + bus_transfer[bank_ctrl]
    rho_bg = np.minimum(bg_rates * s_eff, _BG_RHO_CAP)
    bank_util = np.minimum(bank_rates * s_eff, 1.0)
    bank_queue = q_per_class_bank.sum(axis=0)

    r_mem = (routing * r_bank).sum(axis=1)
    turnaround = think + r_mem

    ctrl_resp = np.zeros((n, n_controllers))
    for k in range(n_controllers):
        mask = bank_ctrl == k
        weights = routing[:, mask]
        denom = np.maximum(weights.sum(axis=1), 1e-300)
        ctrl_resp[:, k] = (weights * r_bank[:, mask]).sum(axis=1) / denom

    return MVASolution(
        throughput_per_s=x,
        memory_response_s=r_mem,
        turnaround_s=turnaround,
        bank_utilization=bank_util,
        bank_queue=bank_queue,
        bus_utilization=rho_bus,
        bus_wait_s=bus_wait,
        controller_arrival_per_s=ctrl_rates,
        controller_response_s=ctrl_resp,
        controller_visit_probs=visit,
        iterations=iteration,
    )


def _z_of_d(inputs: FastCapInputs, d: float, r, t_bar):
    raw = t_bar / d - inputs.cache - r
    return np.clip(raw, inputs.z_min, inputs.z_max)


def _achieved_d(inputs: FastCapInputs, z, r, t_bar) -> float:
    return float(np.min(t_bar / (z + inputs.cache + r)))


def seed_solve_degradation(inputs: FastCapInputs, s_b: float) -> DegradationSolution:
    """The seed Theorem-1 bisection (pre-refactor ``solve_degradation``)."""
    r = inputs.response.per_core(s_b)
    t_bar = inputs.best_turnaround_s()
    mem_power = inputs.memory_dynamic_power_w(s_b)
    available = inputs.budget_w - inputs.static_power_w - mem_power

    def cpu_power(d: float) -> float:
        return inputs.core_dynamic_power_w(_z_of_d(inputs, d, r, t_bar))

    def finish(d_instrument: float, feasible: bool) -> DegradationSolution:
        z = _z_of_d(inputs, d_instrument, r, t_bar)
        return DegradationSolution(
            d=_achieved_d(inputs, z, r, t_bar),
            z=z,
            power_w=cpu_power(d_instrument) + mem_power + inputs.static_power_w,
            feasible=feasible,
        )

    t_floor = inputs.z_max + inputs.cache + r
    d_floor = float(np.min(t_bar / t_floor))
    d_floor = min(max(d_floor, 1e-9), 1.0)

    if cpu_power(d_floor) > available:
        return finish(d_floor, feasible=False)

    if cpu_power(1.0) <= available:
        return finish(1.0, feasible=True)

    lo, hi = d_floor, 1.0
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if cpu_power(mid) > available:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _D_TOL * hi:
            break
    return finish(lo, feasible=True)


_ARRIVAL = 0
_BANK_DONE = 1
_BUS_DONE = 2
_BG_ARRIVAL = 3


@dataclass
class _Job:
    class_index: int  # -1 for background jobs
    bank: int
    arrived_at: float
    service_started: float = 0.0


@dataclass
class _Bank:
    index: int
    controller: int
    service_s: float
    queue: Deque[_Job] = field(default_factory=deque)
    #: Job currently being served or blocked on the bus; None if idle.
    current: Optional[_Job] = None
    busy_since: float = 0.0
    busy_time: float = 0.0
    #: Time-weighted queue-length integral (including job in service).
    queue_area: float = 0.0
    last_change: float = 0.0

    def accumulate(self, now: float) -> None:
        depth = len(self.queue) + (1 if self.current is not None else 0)
        self.queue_area += depth * (now - self.last_change)
        self.last_change = now


@dataclass
class _Bus:
    controller: int
    transfer_s: float
    queue: Deque[Tuple[_Job, int]] = field(default_factory=deque)
    current: Optional[Tuple[_Job, int]] = None
    busy_time: float = 0.0


def seed_simulate_network(
    network,
    horizon_s: float,
    warmup_s: float = 0.0,
    seed: int = 0,
) -> EventSimResult:
    """The dataclass event simulator (pre-flattening ``simulate_network``).

    Run the network for ``horizon_s`` simulated seconds.

    ``network`` is a :class:`QueueingNetwork` or its compiled
    :class:`NetworkArrays` form (the simulator only ever consumes the
    array view, so the server's fast path hands arrays in directly).
    Statistics are collected after ``warmup_s``.  Think times are
    exponential with the class means; bank services are exponential
    around the bank mean (capturing row hit/miss variability); bus
    transfers are deterministic, as a fixed-size line transfer is.
    """
    if horizon_s <= 0:
        raise ConfigurationError("horizon must be positive")
    if not 0.0 <= warmup_s < horizon_s:
        raise ConfigurationError("warmup must be shorter than the horizon")

    arrays = (
        network
        if isinstance(network, NetworkArrays)
        else NetworkArrays.from_network(network)
    )
    rng = np.random.default_rng(seed)
    n_classes = arrays.n_classes
    routing = arrays.routing
    bank_ctrl = arrays.bank_ctrl
    bank_service = arrays.bank_service
    bus_transfer = arrays.bus_transfer
    bg_rates = arrays.bg_rates
    n_banks = arrays.total_banks
    n_ctrl = arrays.n_controllers
    population = arrays.population

    banks = [
        _Bank(index=b, controller=int(bank_ctrl[b]), service_s=float(bank_service[b]))
        for b in range(n_banks)
    ]
    buses = [_Bus(controller=k, transfer_s=float(bus_transfer[k])) for k in range(n_ctrl)]

    counter = itertools.count()
    events: List[Tuple[float, int, int, object]] = []

    def push(when: float, kind: int, payload: object) -> None:
        heapq.heappush(events, (when, next(counter), kind, payload))

    think_means = arrays.think_s

    def sample_think(ci: int) -> float:
        mean = think_means[ci]
        if mean <= 0:
            return 0.0
        return float(rng.exponential(mean))

    def sample_service(bank: _Bank) -> float:
        return float(rng.exponential(bank.service_s))

    def pick_bank(ci: int) -> int:
        return int(rng.choice(n_banks, p=routing[ci]))

    # Measurement accumulators (per class / station).
    completions = np.zeros(n_classes, dtype=np.int64)
    response_sum = np.zeros(n_classes)
    cycle_sum = np.zeros(n_classes)
    q_seen_sum = np.zeros(n_ctrl)
    q_seen_count = np.zeros(n_ctrl, dtype=np.int64)
    u_seen_sum = np.zeros(n_ctrl)
    u_seen_count = np.zeros(n_ctrl, dtype=np.int64)
    cycle_started = np.zeros(n_classes)

    measuring = False
    measure_start = warmup_s

    def note_arrival(job: _Job, now: float) -> None:
        bank = banks[job.bank]
        bank.accumulate(now)
        if measuring and job.class_index >= 0:
            depth = len(bank.queue) + (1 if bank.current is not None else 0)
            q_seen_sum[bank.controller] += depth + 1  # include the arrival
            q_seen_count[bank.controller] += 1
        if bank.current is None:
            bank.current = job
            bank.busy_since = now
            job.service_started = now
            push(now + sample_service(bank), _BANK_DONE, bank.index)
        else:
            bank.queue.append(job)

    def start_bus_or_queue(job: _Job, now: float) -> None:
        bank = banks[job.bank]
        bus = buses[bank.controller]
        if measuring and job.class_index >= 0:
            u_seen_sum[bus.controller] += len(bus.queue) + 1  # include self
            u_seen_count[bus.controller] += 1
        if bus.current is None:
            bus.current = (job, bank.index)
            push(now + bus.transfer_s, _BUS_DONE, bank.controller)
            if measuring:
                bus.busy_time += 0.0  # accounted at completion
        else:
            bus.queue.append((job, bank.index))

    # Seed the closed classes: every job starts with a think period.
    for ci in range(n_classes):
        for _ in range(int(population[ci])):
            push(sample_think(ci), _ARRIVAL, ci)
    # Seed background flows.
    for b in range(n_banks):
        if bg_rates[b] > 0:
            push(float(rng.exponential(1.0 / bg_rates[b])), _BG_ARRIVAL, b)

    now = 0.0
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if now > horizon_s:
            now = horizon_s
            break
        if not measuring and now >= warmup_s:
            measuring = True
            measure_start = now
            for bank in banks:
                bank.accumulate(now)
                bank.queue_area = 0.0
                bank.busy_time = 0.0
                if bank.current is not None:
                    bank.busy_since = now
            for bus in buses:
                bus.busy_time = 0.0

        if kind == _ARRIVAL:
            ci = int(payload)
            if measuring:
                cycle_started[ci] = now
            job = _Job(class_index=ci, bank=pick_bank(ci), arrived_at=now)
            note_arrival(job, now)
        elif kind == _BG_ARRIVAL:
            b = int(payload)
            job = _Job(class_index=-1, bank=b, arrived_at=now)
            note_arrival(job, now)
            push(now + float(rng.exponential(1.0 / bg_rates[b])), _BG_ARRIVAL, b)
        elif kind == _BANK_DONE:
            bank = banks[int(payload)]
            job = bank.current
            assert job is not None, "bank completion with no job in service"
            # Bank stays blocked (current != None) until the bus moves
            # this job's data: transfer blocking.
            start_bus_or_queue(job, now)
        elif kind == _BUS_DONE:
            bus = buses[int(payload)]
            assert bus.current is not None, "bus completion with no transfer"
            job, bank_index = bus.current
            bank = banks[bank_index]
            if measuring:
                bus.busy_time += bus.transfer_s
            # Release the bank and start its next request, if any.
            bank.accumulate(now)
            if measuring:
                bank.busy_time += now - max(bank.busy_since, measure_start)
            bank.current = None
            if bank.queue:
                nxt = bank.queue.popleft()
                bank.current = nxt
                bank.busy_since = now
                nxt.service_started = now
                push(now + sample_service(bank), _BANK_DONE, bank.index)
            # Start the next bus transfer, if queued.
            bus.current = None
            if bus.queue:
                bus.current = bus.queue.popleft()
                push(now + bus.transfer_s, _BUS_DONE, bus.controller)
            # Complete the job.
            if job.class_index >= 0:
                ci = job.class_index
                if measuring:
                    completions[ci] += 1
                    response_sum[ci] += now - job.arrived_at
                    if cycle_started[ci] > 0:
                        cycle_sum[ci] += now - job.arrived_at + (
                            job.arrived_at - cycle_started[ci]
                        )
                push(now + sample_think(ci), _ARRIVAL, ci)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown event kind {kind}")

    elapsed = max(now - measure_start, 1e-300)
    for bank in banks:
        bank.accumulate(now)
        if bank.current is not None:
            bank.busy_time += now - max(bank.busy_since, measure_start)

    throughput = completions / elapsed
    with np.errstate(invalid="ignore", divide="ignore"):
        response = np.where(completions > 0, response_sum / np.maximum(completions, 1), np.nan)
    turnaround = response + think_means

    bank_util = np.array([min(b.busy_time / elapsed, 1.0) for b in banks])
    bus_util = np.array([min(b.busy_time / elapsed, 1.0) for b in buses])
    q_counter = np.where(q_seen_count > 0, q_seen_sum / np.maximum(q_seen_count, 1), 1.0)
    u_counter = np.where(u_seen_count > 0, u_seen_sum / np.maximum(u_seen_count, 1), 1.0)

    return EventSimResult(
        throughput_per_s=throughput,
        memory_response_s=response,
        turnaround_s=turnaround,
        bank_utilization=bank_util,
        bus_utilization=bus_util,
        q_counter=q_counter,
        u_counter=u_counter,
        simulated_time_s=elapsed,
        completions=completions,
    )
