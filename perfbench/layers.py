"""Where the tracer attaches, and the per-layer metrics it yields.

Every wrapped name is a public entry point of one module, looked up by
the program at call time, so the wrapper sees every call:

* ``queueing.mva`` — :class:`MVASolver` ``solve``/``solve_relaxed``
  (plus the per-lane ``_snapshot`` that fleets share);
* ``queueing.kernels`` — :class:`FixedPointKernel` ``solve_lane``/
  ``solve_lanes`` (the ctypes marshalling is inside the span);
* ``queueing.fleet`` — :class:`FleetSolver` ``solve``/``solve_relaxed``;
* ``core.governor`` — ``FastCapGovernor.decide``, the module-level
  ``decide_fastcap_fleet`` (imported by the fleet at call time) and
  the search functions under the names the governor resolves;
* ``sim.server`` — simulator build, counter synthesis and the two run
  drivers (their self time is the simulator's own epoch code);
* ``campaign.runner``/``campaign.cache`` — ``run_campaign``,
  ``ResultCache.put``/``get``;
* ``queueing.eventsim`` — ``simulate_network``;
* ``service`` — ``Session.advance`` and the telemetry ring.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracing import Tracer

#: Per-layer metrics in output order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("mva.solve_s", "s"),
    ("mva.solves", "count"),
    ("mva.iterations", "count"),
    ("mva.iterations_per_solve", "count"),
    ("mva.relaxed_glue_s", "s"),
    ("mva.snapshot_s", "s"),
    ("kernel.call_s", "s"),
    ("kernel.calls", "count"),
    ("fleet.solve_s", "s"),
    ("fleet.calls", "count"),
    ("fleet.lanes_per_call", "count"),
    ("fleet.iterations", "count"),
    ("decide.s", "s"),
    ("decide.calls", "count"),
    ("decide.us_per_call", "us"),
    ("decide.sb_evals", "count"),
    ("decide.sb_evals_per_decide", "count"),
    ("policy.decide_s", "s"),
    ("sim.build_ms", "ms"),
    ("counters.synthesize_us", "us"),
    ("sim.self_s", "s"),
    ("campaign.runs_executed", "count"),
    ("campaign.fleet_occupancy", "ratio"),
    ("cache.put_ms", "ms"),
    ("cache.bytes_written", "bytes"),
    ("cache.get_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("eventsim.s", "s"),
    ("eventsim.calls", "count"),
    ("eventsim.completions", "count"),
    ("eventsim.ns_per_completion", "ns"),
    ("service.advance_ms", "ms"),
    ("service.dispatch_ms", "ms"),
    ("service.telemetry_ms", "ms"),
    ("service.status_4xx", "count"),
    ("service.status_5xx", "count"),
    ("trace.epochs_per_s", "1/s"),
]

#: Work counters that must repeat exactly between runs of the same code
#: on the same inputs.
DETERMINISTIC = (
    "mva.iterations",
    "mva.solves",
    "fleet.calls",
    "fleet.lanes",
    "decide.calls",
    "decide.sb_evals",
    "cache.replay.gets",
    "cache.replay.hits",
    "eventsim.completions",
)

_SOLVE_SPANS = ("mva.solve", "mva.solve_relaxed", "fleet.solve", "fleet.solve_relaxed")
_RELAXED_SPANS = ("mva.solve_relaxed", "fleet.solve_relaxed")
_DECIDE_SPANS = ("decide", "decide.fleet")


def _count_solve(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.parent_name() in _SOLVE_SPANS:
        return  # a delegating relaxed call already counts this solve
    tracer.count("mva.solves")
    tracer.count("mva.iterations", result.iterations)


def _count_fleet(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.parent_name() in _SOLVE_SPANS:
        return
    lanes = [s for s in result if s is not None]
    iterations = sum(s.iterations for s in lanes)
    tracer.count("fleet.calls")
    tracer.count("fleet.lanes", len(lanes))
    tracer.count("fleet.iterations", iterations)
    tracer.count("mva.solves", len(lanes))
    tracer.count("mva.iterations", iterations)


def _count_search(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("decide.sb_evals", result.evaluations)


def _count_fleet_search(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("decide.sb_evals", sum(d.evaluations for d in result))


def _count_fleet_decide(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("decide.calls", len(result))


def _count_one(key: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(key)

    return hook


def _count_campaign(tracer: Tracer, args, kwargs, result) -> None:
    runner = args[0]
    tracer.count("campaign.runs_executed", result.runs_executed)
    tracer.count("campaign.lane_ticks", runner.fleet_lane_ticks)
    tracer.count("campaign.slot_ticks", runner.fleet_slot_ticks)


def _count_put(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("cache.bytes_written", result.stat().st_size)


def _count_get(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count(f"cache.{tracer.phase}.gets")
    tracer.count(f"cache.{tracer.phase}.hits", result is not None)
    tracer.count(f"cache.{tracer.phase}.get_s", tracer.last_seconds)


def _count_eventsim(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("eventsim.completions", int(result.completions.sum()))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (disabled until ``tracer.enabled``)."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import CampaignRunner
    from repro.core import governor
    from repro.core.governor import FastCapGovernor
    from repro.core.policy_base import ModelDrivenPolicy
    from repro.policies.freq_par import FreqParPolicy
    from repro.queueing import eventsim
    from repro.queueing.fleet import FleetSolver
    from repro.queueing.kernels.registry import FixedPointKernel
    from repro.queueing.mva import MVASolver
    from repro.service.session import Session
    from repro.service.telemetry import TelemetryRing
    from repro.sim.server import FleetSimulator, ServerSimulator

    w = tracer.wrap
    w(MVASolver, "solve", "mva.solve", _count_solve)
    w(MVASolver, "solve_relaxed", "mva.solve_relaxed", _count_solve)
    w(MVASolver, "_snapshot", "mva.snapshot")
    w(FixedPointKernel, "solve_lane", "kernel.call", _count_one("kernel.calls"))
    w(FixedPointKernel, "solve_lanes", "kernel.call", _count_one("kernel.calls"))
    w(FleetSolver, "solve", "fleet.solve", _count_fleet)
    w(FleetSolver, "solve_relaxed", "fleet.solve_relaxed", _count_fleet)
    w(FastCapGovernor, "decide", "decide", _count_one("decide.calls"))
    w(governor, "decide_fastcap_fleet", "decide.fleet", _count_fleet_decide)
    w(governor, "binary_search_sb", "decide.search", _count_search)
    w(governor, "exhaustive_sb", "decide.search", _count_search)
    w(governor, "fleet_search_sb", "decide.search", _count_fleet_search)
    w(ModelDrivenPolicy, "decide", "policy.decide")
    w(FreqParPolicy, "decide", "policy.decide")
    w(ServerSimulator, "__init__", "sim.build")
    w(ServerSimulator, "synthesize_counters", "counters.synthesize")
    w(ServerSimulator, "run", "sim.run")
    w(FleetSimulator, "run", "sim.fleet_run")
    w(CampaignRunner, "run_campaign", "campaign.run", _count_campaign)
    w(ResultCache, "put", "cache.put", _count_put)
    w(ResultCache, "get", "cache.get", _count_get)
    w(eventsim, "simulate_network", "eventsim", _count_eventsim)
    w(Session, "advance", "service.advance")
    w(TelemetryRing, "append", "service.telemetry")
    w(TelemetryRing, "summary", "service.telemetry")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, reps: int, epochs: float, seconds: float, steps: int
) -> Dict[str, float]:
    """Per-layer metrics per traced repetition.

    ``epochs``/``seconds`` are the simulated epochs and host seconds of
    the traced repetitions; ``steps`` counts the service step requests
    (0 on the campaign workloads).
    """
    t = tracer.totals()
    c = tracer.counts

    def s(name: str) -> float:
        return t.get(name, {}).get("s", 0.0)

    def calls(name: str) -> float:
        return t.get(name, {}).get("calls", 0.0)

    def self_s(name: str) -> float:
        return t.get(name, {}).get("self_s", 0.0)

    relaxed = sum(s(n) for n in _RELAXED_SPANS)
    decide_s = tracer.outer_seconds(_DECIDE_SPANS)
    out = {
        "mva.solve_s": tracer.outer_seconds(_SOLVE_SPANS) / reps,
        "mva.solves": c["mva.solves"] / reps,
        "mva.iterations": c["mva.iterations"] / reps,
        "mva.iterations_per_solve": _ratio(c["mva.iterations"], c["mva.solves"]),
        "mva.relaxed_glue_s": (
            relaxed - tracer.child_seconds(_RELAXED_SPANS, "kernel.call")
        )
        / reps,
        "mva.snapshot_s": s("mva.snapshot") / reps,
        "kernel.call_s": s("kernel.call") / reps,
        "kernel.calls": c["kernel.calls"] / reps,
        "fleet.solve_s": tracer.outer_seconds(("fleet.solve", "fleet.solve_relaxed"))
        / reps,
        "fleet.calls": c["fleet.calls"] / reps,
        "fleet.lanes_per_call": _ratio(c["fleet.lanes"], c["fleet.calls"]),
        "fleet.iterations": c["fleet.iterations"] / reps,
        "decide.s": decide_s / reps,
        "decide.calls": c["decide.calls"] / reps,
        "decide.us_per_call": _ratio(decide_s, c["decide.calls"]) * 1e6,
        "decide.sb_evals": c["decide.sb_evals"] / reps,
        "decide.sb_evals_per_decide": _ratio(
            c["decide.sb_evals"], c["decide.calls"]
        ),
        "policy.decide_s": s("policy.decide") / reps,
        "sim.build_ms": _ratio(s("sim.build"), calls("sim.build")) * 1e3,
        "counters.synthesize_us": _ratio(
            s("counters.synthesize"), calls("counters.synthesize")
        )
        * 1e6,
        "sim.self_s": (self_s("sim.run") + self_s("sim.fleet_run")) / reps,
        "campaign.runs_executed": c["campaign.runs_executed"] / reps,
        "campaign.fleet_occupancy": _ratio(
            c["campaign.lane_ticks"], c["campaign.slot_ticks"]
        ),
        "cache.put_ms": _ratio(s("cache.put"), calls("cache.put")) * 1e3,
        "cache.bytes_written": c["cache.bytes_written"] / reps,
        "cache.get_ms": _ratio(c["cache.replay.get_s"], c["cache.replay.gets"])
        * 1e3,
        "cache.hit_ratio": _ratio(c["cache.replay.hits"], c["cache.replay.gets"]),
        "eventsim.s": s("eventsim") / reps,
        "eventsim.calls": calls("eventsim") / reps,
        "eventsim.completions": c["eventsim.completions"] / reps,
        "eventsim.ns_per_completion": _ratio(
            s("eventsim"), c["eventsim.completions"]
        )
        * 1e9,
        "service.advance_ms": _ratio(s("service.advance"), steps) * 1e3,
        "service.dispatch_ms": _ratio(self_s("service.step"), steps) * 1e3,
        "service.telemetry_ms": _ratio(s("service.telemetry"), steps) * 1e3,
        "service.status_4xx": c["service.status_4xx"] / reps,
        "service.status_5xx": c["service.status_5xx"] / reps,
        "trace.epochs_per_s": _ratio(epochs, seconds),
    }
    return out


def work_counters(tracer: Tracer) -> Dict[str, float]:
    """Snapshot of the deterministic work counters."""
    return {key: tracer.counts.get(key, 0.0) for key in DETERMINISTIC}
