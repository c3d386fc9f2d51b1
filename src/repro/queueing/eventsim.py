"""Discrete-event simulation of the transfer-blocking network.

A mechanistic replay of the closed queueing network in
:mod:`repro.queueing.network`: jobs think (exponential), queue at FCFS
banks (service time drawn from the row-hit/miss mixture embedded in the
mean), then hold their bank while waiting for and using the FCFS bus —
the transfer-blocking behaviour of the paper's Fig. 1.  Background
flows arrive Poisson and traverse the same bank+bus path.

This exists to validate the AMVA fixed point
(:func:`repro.queueing.mva.solve_mva`): the test suite compares
throughputs and response times between the two on matched networks.
It also records the paper's Q and U counters the way hardware would —
queue length seen at arrival, bus backlog seen at departure readiness.

Random stream contract: one generator, ``np.random.default_rng(seed)``,
drawn in event order — one uniform per foreground arrival (its bank,
by inverse CDF over the class's routing row, as ``Generator.choice``
picks it) and one standard exponential per think, bank-service or
background inter-arrival draw (scaled by the mean; a think mean of
zero draws nothing).  A given seed yields the same result bytes as the
earlier ``choice``/``exponential`` formulation; the test suite checks
that against the verbatim copy in ``benchmarks/seed_reference.py``.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.queueing.arrays import NetworkArrays

_ARRIVAL = 0
_BANK_DONE = 1
_BUS_DONE = 2
_BG_ARRIVAL = 3

#: ``Generator.choice``'s tolerance on a probability row's sum.
_ROUTING_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class EventSimResult:
    """Measured steady-state statistics from one event-driven run."""

    throughput_per_s: np.ndarray
    memory_response_s: np.ndarray
    turnaround_s: np.ndarray
    bank_utilization: np.ndarray
    bus_utilization: np.ndarray
    #: Mean bank queue length seen by an arriving request, +1 for the
    #: request itself (the paper's Q), per controller.
    q_counter: np.ndarray
    #: Mean number of requests waiting for the bus at departure
    #: readiness, including the departing one (the paper's U), per
    #: controller.
    u_counter: np.ndarray
    simulated_time_s: float
    completions: np.ndarray


def _routing_cdf(row: np.ndarray) -> List[float]:
    """Validate one routing row as ``Generator.choice`` does; return its CDF.

    ``choice(n, p=row)`` returns ``searchsorted(cdf, random(), "right")``
    with ``cdf = row.cumsum() / row.cumsum()[-1]``; ``bisect_right`` on
    this list picks the same bank from the same uniform.
    """
    total = float(row.sum())
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (row < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _ROUTING_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = row.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _mean_seen(sums: List[float], counts: List[int]) -> np.ndarray:
    """Per-controller mean of a seen-at-event counter; 1.0 where never seen."""
    counts = np.array(counts, dtype=np.int64)
    return np.where(counts > 0, np.array(sums) / np.maximum(counts, 1), 1.0)


def simulate_network(
    network,
    horizon_s: float,
    warmup_s: float = 0.0,
    seed: int = 0,
) -> EventSimResult:
    """Run the network for ``horizon_s`` simulated seconds.

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
    uniform = rng.random
    std_exp = rng.standard_exponential
    n_classes = arrays.n_classes
    n_banks = arrays.total_banks
    n_ctrl = arrays.n_controllers
    think_means = arrays.think_s
    population = [int(p) for p in arrays.population]
    think = think_means.tolist()
    # Only classes with jobs ever pick a bank, so only their rows are checked.
    cdfs = [
        _routing_cdf(arrays.routing[ci]) if population[ci] > 0 else None
        for ci in range(n_classes)
    ]
    bank_ctrl = arrays.bank_ctrl.tolist()
    if np.signbit(arrays.bank_service).any():
        # Generator.exponential's own check on a negative mean.
        raise ValueError("scale < 0")
    bank_service = arrays.bank_service.tolist()
    bus_transfer = arrays.bus_transfer.tolist()
    bg_rates = arrays.bg_rates.tolist()

    # Station state.  A job is ``(class_index, bank, arrived_at)`` with
    # class -1 for background; a bank's current job holds it through
    # the bus transfer (transfer blocking).
    bank_queue = [deque() for _ in range(n_banks)]
    bank_current: list = [None] * n_banks
    bank_busy_since = [0.0] * n_banks
    bank_busy_time = [0.0] * n_banks
    bus_queue = [deque() for _ in range(n_ctrl)]
    bus_current: list = [None] * n_ctrl
    bus_busy_time = [0.0] * n_ctrl

    # Measurement accumulators (per class / controller).
    completions = [0] * n_classes
    response_sum = [0.0] * n_classes
    q_seen_sum = [0.0] * n_ctrl
    q_seen_count = [0] * n_ctrl
    u_seen_sum = [0.0] * n_ctrl
    u_seen_count = [0] * n_ctrl

    # Heap entries are (when, seq, kind, payload); seq breaks time ties
    # in push order.
    events: list = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = itertools.count()

    # Seed the closed classes: every job starts with a think period.
    for ci in range(n_classes):
        mean = think[ci]
        for _ in range(population[ci]):
            when = 0.0 if mean <= 0 else mean * std_exp()
            push(events, (when, next(seq), _ARRIVAL, ci))
    # Seed background flows.
    for b in range(n_banks):
        if bg_rates[b] > 0:
            push(events, ((1.0 / bg_rates[b]) * std_exp(), next(seq), _BG_ARRIVAL, b))

    measuring = False
    measure_start = warmup_s
    now = 0.0
    while events:
        now, _, kind, payload = pop(events)
        if now > horizon_s:
            now = horizon_s
            break
        if not measuring and now >= warmup_s:
            # Nothing accrues before this point, so there is nothing to reset.
            measuring = True
            measure_start = now

        if kind == _ARRIVAL or kind == _BG_ARRIVAL:
            if kind == _ARRIVAL:
                ci = payload
                b = bisect_right(cdfs[ci], uniform())
            else:
                ci = -1
                b = payload
            job = (ci, b, now)
            if measuring and ci >= 0:
                k = bank_ctrl[b]
                depth = len(bank_queue[b]) + (bank_current[b] is not None)
                q_seen_sum[k] += depth + 1  # include the arrival
                q_seen_count[k] += 1
            if bank_current[b] is None:
                bank_current[b] = job
                bank_busy_since[b] = now
                when = now + bank_service[b] * std_exp()
                push(events, (when, next(seq), _BANK_DONE, b))
            else:
                bank_queue[b].append(job)
            if ci < 0:
                when = now + (1.0 / bg_rates[b]) * std_exp()
                push(events, (when, next(seq), _BG_ARRIVAL, b))
        elif kind == _BANK_DONE:
            # The bank stays blocked until the bus moves this job's data.
            job = bank_current[payload]
            k = bank_ctrl[payload]
            if measuring and job[0] >= 0:
                u_seen_sum[k] += len(bus_queue[k]) + 1  # include self
                u_seen_count[k] += 1
            if bus_current[k] is None:
                bus_current[k] = job
                push(events, (now + bus_transfer[k], next(seq), _BUS_DONE, k))
            else:
                bus_queue[k].append(job)
        else:  # _BUS_DONE
            k = payload
            ci, b, arrived_at = bus_current[k]
            if measuring:
                bus_busy_time[k] += bus_transfer[k]
                bank_busy_time[b] += now - max(bank_busy_since[b], measure_start)
            # Release the bank and start its next request, if any.
            bank_current[b] = None
            if bank_queue[b]:
                bank_current[b] = bank_queue[b].popleft()
                bank_busy_since[b] = now
                when = now + bank_service[b] * std_exp()
                push(events, (when, next(seq), _BANK_DONE, b))
            # Start the next bus transfer, if queued.
            bus_current[k] = None
            if bus_queue[k]:
                bus_current[k] = bus_queue[k].popleft()
                push(events, (now + bus_transfer[k], next(seq), _BUS_DONE, k))
            # Complete the job.
            if ci >= 0:
                if measuring:
                    completions[ci] += 1
                    response_sum[ci] += now - arrived_at
                mean = think[ci]
                when = now + (0.0 if mean <= 0 else mean * std_exp())
                push(events, (when, next(seq), _ARRIVAL, ci))

    elapsed = max(now - measure_start, 1e-300)
    for b in range(n_banks):
        if bank_current[b] is not None:
            bank_busy_time[b] += now - max(bank_busy_since[b], measure_start)

    completions = np.array(completions, dtype=np.int64)
    throughput = completions / elapsed
    response_sum = np.array(response_sum)
    with np.errstate(invalid="ignore", divide="ignore"):
        response = np.where(completions > 0, response_sum / np.maximum(completions, 1), np.nan)
    turnaround = response + think_means

    bank_util = np.array([min(t / elapsed, 1.0) for t in bank_busy_time])
    bus_util = np.array([min(t / elapsed, 1.0) for t in bus_busy_time])

    return EventSimResult(
        throughput_per_s=throughput,
        memory_response_s=response,
        turnaround_s=turnaround,
        bank_utilization=bank_util,
        bus_utilization=bus_util,
        q_counter=_mean_seen(q_seen_sum, q_seen_count),
        u_counter=_mean_seen(u_seen_sum, u_seen_count),
        simulated_time_s=elapsed,
        completions=completions,
    )
