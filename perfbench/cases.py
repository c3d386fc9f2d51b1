"""The four workloads: inputs from a seed, one repetition, checks.

A repetition (``rep``) is the unit the benchmark repeats for the
measured window; every repetition of a run does identical work, so its
results must hash identically and its work counters must repeat.  The
checks run once per run, outside the measured window.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from hostspeed import CLOCK, HostSpeed

#: Budget fraction of the paper's Fig. 9 / Fig. 10 comparisons.
BUDGET = 0.6


@dataclass
class Rep:
    """Outcome of one repetition."""

    #: Seconds of the repetition: process CPU time without the host-speed
    #: probes in the untraced run (see hostspeed.py), wall time traced.
    seconds: float
    #: The same time normalized to the reference host's speed (see
    #: hostspeed.py); equal to ``seconds`` in traced repetitions.
    normalized_seconds: float
    #: Simulated epochs, summed over runs or lanes.
    epochs: int
    #: Normalized host milliseconds per step: per service step request,
    #: or per simulated epoch of each run or lane on the campaign
    #: workloads.  Traced campaign repetitions keep no steps; traced
    #: service steps are wall times.
    steps_ms: List[float]
    attempted: int
    failed: int
    digest: str


class Checks:
    """Named pass/fail correctness checks; each one is an operation."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def guarded(self, name: str, fn: Callable[[], Tuple[bool, str]]) -> None:
        """Run ``fn``; a raised exception fails the check."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failed check, reported
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.check(name, ok, detail)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def digest(results) -> str:
    from repro.sim.results_io import run_result_to_dict

    blob = json.dumps([run_result_to_dict(r) for r in results], sort_keys=True)
    blob = blob.encode()
    return hashlib.sha256(blob).hexdigest()


def degradation_metrics(summary) -> Dict[str, float]:
    """Average degradation, the worst application's (the mean over its
    copies, as in the paper's per-application bars) and their ratio."""
    worst = max(summary.per_app.values())
    return {
        "sim_degradation_avg": summary.average,
        "sim_degradation_worst": worst,
        "sim_outlier_gap": worst / summary.average,
    }


def campaign_sim(campaign, res) -> Dict[str, float]:
    """Simulated outcomes of a campaign's capped runs."""
    from repro.metrics.performance import summarize_degradation
    from repro.metrics.power import summarize_power

    runs = [res[s] for s in campaign.specs]
    bases = [res.baseline(s) for s in campaign.specs]
    return {
        **degradation_metrics(summarize_degradation(runs, bases)),
        # Peak epoch power as a multiple of the budget: 1 + the largest
        # overshoot, below 1 when no run ever exceeds its cap.
        "sim_overshoot_max": max(
            summarize_power(r).max_epoch_w / summarize_power(r).budget_w
            for r in runs
        ),
    }


def all_specs(campaign) -> list:
    """Capped specs in declared order, then each distinct baseline once."""
    specs = list(campaign.specs)
    seen = set()
    for spec in campaign.specs:
        base = spec.baseline_spec()
        if base.spec_hash() not in seen:
            seen.add(base.spec_hash())
            specs.append(base)
    return specs


def ordered_results(campaign, res) -> list:
    return [res[spec] for spec in all_specs(campaign)]


def rel_close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


def relaxed_contract(exact, relaxed, rtol: float = 1e-8) -> Tuple[bool, str]:
    """The relaxed tier's run-level contract against its exact twin."""
    if len(exact.epochs) != len(relaxed.epochs):
        return False, "epoch counts differ"
    if not rel_close(relaxed.instructions, exact.instructions, rtol):
        return False, "instructions differ"
    for e, r in zip(exact.epochs, relaxed.epochs):
        if (
            r.core_frequencies_hz != e.core_frequencies_hz
            or r.bus_frequency_hz != e.bus_frequency_hz
        ):
            return False, f"epoch {e.index}: frequency decisions differ"
        for name in ("total_power_w", "cpu_power_w", "memory_power_w"):
            if not rel_close(getattr(r, name), getattr(e, name), rtol):
                return False, f"epoch {e.index}: {name} beyond {rtol}"
        if not rel_close(r.per_core_ips, e.per_core_ips, rtol):
            return False, f"epoch {e.index}: per_core_ips beyond {rtol}"
    return True, ""


class EpochClock:
    """Host time between a simulator's successive epochs.

    While active it timestamps every ``synthesize_counters`` call (one
    per run or lane per epoch) and keeps the interval since the same
    simulator's previous call: in a lockstep fleet that is the time the
    whole fleet takes to advance one epoch.  Before each call it lets
    ``speed`` probe the host; an interval leaves out the probes inside
    it.  Without ``speed`` (the traced run) it does nothing.
    """

    def __init__(self, speed: Optional[HostSpeed]) -> None:
        self.speed = speed
        #: (milliseconds, host-speed stretch) of each interval.
        self.intervals: List[Tuple[float, int]] = []
        self._last: Dict[object, Tuple[float, float]] = {}

    def __enter__(self) -> "EpochClock":
        from repro.sim.server import ServerSimulator

        if self.speed is None:
            return self
        self._original = original = ServerSimulator.synthesize_counters
        last, intervals, speed = self._last, self.intervals, self.speed
        clock = CLOCK

        def synthesize_counters(sim, *args, **kwargs):
            stretch = speed.stretch
            speed.tick()
            now = clock()
            previous = last.get(sim)
            if previous is not None:
                then, probed = previous
                work = now - then - (speed.probe_s - probed)
                intervals.append((work * 1e3, stretch))
            last[sim] = (now, speed.probe_s)
            return original(sim, *args, **kwargs)

        ServerSimulator.synthesize_counters = synthesize_counters
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.server import ServerSimulator

        if self.speed is not None:
            ServerSimulator.synthesize_counters = self._original
            self._last.clear()


# ----------------------------------------------------------------------
class CampaignCase:
    """A campaign run through ``CampaignRunner`` with ``jobs=1``."""

    name = ""
    batch = "scalar"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.campaign = self.build_campaign()

    def build_campaign(self):
        raise NotImplementedError

    def runner(self, cache_dir: Optional[Path] = None):
        from repro.campaign import CampaignRunner

        return CampaignRunner(
            jobs=1,
            batch=self.batch,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )

    def first_build(self) -> None:
        """Set-up's first simulator build (the first spec's simulator)."""
        from repro.campaign.runner import config_for_spec
        from repro.sim.server import ServerSimulator
        from repro.workloads import get_workload

        spec = self.campaign.specs[0]
        ServerSimulator(
            config_for_spec(spec),
            get_workload(spec.workload),
            seed=spec.seed,
            engine=spec.engine,
            parity=spec.parity,
        )

    def rep(self, tracer=None) -> Rep:
        runner = self.runner(self.cache_dir())
        n_runs = len(all_specs(self.campaign))
        speed = HostSpeed() if tracer is None else None
        clock = EpochClock(speed)
        t0 = time.perf_counter()
        try:
            with clock:
                res = runner.run_campaign(self.campaign, include_baselines=True)
        except Exception as exc:  # a raised run fails every run of the rep
            print(f"rep failed: {type(exc).__name__}: {exc}", flush=True)
            elapsed = time.perf_counter() - t0
            return Rep(elapsed, elapsed, 0, [], n_runs, n_runs, "")
        seconds = normalized = time.perf_counter() - t0
        steps_ms: List[float] = []
        if speed is not None:
            speed.close()
            seconds, normalized = speed.measured_s, speed.normalized_s
            steps_ms = speed.normalize(clock.intervals)
        self.last = res
        results = ordered_results(self.campaign, res)
        return Rep(
            seconds,
            normalized,
            sum(r.n_epochs for r in results),
            steps_ms,
            n_runs,
            0,
            digest(results),
        )

    def sim_metrics(self) -> Dict[str, float]:
        return campaign_sim(self.campaign, self.last)

    def cache_dir(self) -> Optional[Path]:
        return None

    def checks(self, checks: Checks, tracer=None) -> None:
        """Workload-specific checks on the last repetition."""


class Fig9ExactFleet(CampaignCase):
    """Full Fig. 9 grid, exact tier, fleet lockstep, fresh disk cache."""

    name = "fig9-exact-fleet"
    batch = "fleet"

    def build_campaign(self):
        from repro.campaign import Campaign
        from repro.experiments import fig9

        return Campaign(
            "fig9",
            [
                s.replace(record_decision_time=False, seed=self.seed)
                for s in fig9.campaign().specs
            ],
        )

    def cache_dir(self) -> Path:
        path = self.work / "fig9-cache"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def checks(self, checks: Checks, tracer=None) -> None:
        from repro.campaign.runner import execute_spec
        from repro.sim.results_io import run_result_to_dict

        cold = ordered_results(self.campaign, self.last)
        cold_digest = digest(cold)

        def replay():
            runner = self.runner(self.work / "fig9-cache")
            if tracer is not None:
                # Traced so cache.get_ms and cache.hit_ratio describe
                # the replay.
                tracer.phase, tracer.enabled = "replay", True
            try:
                res = runner.run_campaign(self.campaign, include_baselines=True)
            finally:
                if tracer is not None:
                    tracer.phase, tracer.enabled = "", False
            same = digest(ordered_results(self.campaign, res)) == cold_digest
            return (
                same and runner.runs_executed == 0,
                f"{runner.runs_executed} runs re-executed, same={same}",
            )

        checks.guarded("fig9 replay from disk cache hashes like cold", replay)

        specs = all_specs(self.campaign)
        spec = random.Random(self.seed).choice(specs)

        def scalar_lane():
            scalar = run_result_to_dict(execute_spec(spec))
            return scalar == run_result_to_dict(self.last[spec]), spec.to_json()

        checks.guarded("fig9 sampled spec: scalar run equals its fleet lane", scalar_lane)


class Fig10RelaxedN64(CampaignCase):
    """Fig. 10 grid at 64 cores, relaxed tier on cc, scalar, no cache.

    Three spec seeds per repetition scale it to a multi-second run
    without shortening any run.
    """

    name = "fig10-relaxed-n64"
    batch = "scalar"
    SPEC_SEEDS = 3

    def build_campaign(self):
        from repro.campaign import Campaign
        from repro.experiments import fig10

        specs = [
            s.replace(
                record_decision_time=False,
                parity="relaxed",
                seed=self.SPEC_SEEDS * self.seed + k,
            )
            for k in range(self.SPEC_SEEDS)
            for s in fig10.campaign().specs
        ]
        return Campaign("fig10", specs)

    def checks(self, checks: Checks, tracer=None) -> None:
        from repro.campaign.runner import execute_spec

        sampled = random.Random(self.seed).sample(list(self.campaign.specs), 2)
        for spec in sampled:

            def contract(spec=spec):
                exact = execute_spec(spec.replace(parity="exact"))
                ok, detail = relaxed_contract(exact, self.last[spec])
                return ok, f"{spec.workload}/{spec.policy}/seed {spec.seed} {detail}"

            checks.guarded("fig10 sampled spec meets the relaxed contract", contract)


class EventsimValidation(CampaignCase):
    """Event-driven engine at n=16, FastCap at B=0.6, fixed epoch cap."""

    name = "eventsim-validation"
    batch = "scalar"
    WORKLOADS = ("MIX1", "MEM1")
    MAX_EPOCHS = 6
    #: Documented mva-vs-eventsim mean-power agreement (see
    #: tests/sim/test_engine_agreement.py).
    POWER_RTOL = 0.02

    def build_campaign(self):
        from repro.campaign import Campaign, RunSpec

        return Campaign(
            "eventsim",
            [
                RunSpec(
                    workload=w,
                    policy="fastcap",
                    budget_fraction=BUDGET,
                    n_cores=16,
                    engine="eventsim",
                    instruction_quota=None,
                    max_epochs=self.MAX_EPOCHS,
                    seed=self.seed,
                    record_decision_time=False,
                )
                for w in self.WORKLOADS
            ],
        )

    def checks(self, checks: Checks, tracer=None) -> None:
        from repro.campaign.runner import execute_spec

        for spec in self.campaign.specs:

            def agree(spec=spec):
                event = self.last[spec].mean_power_w()
                mva = execute_spec(spec.replace(engine="mva")).mean_power_w()
                gap = abs(event - mva) / event
                return gap <= self.POWER_RTOL, f"{spec.workload}: gap {gap:.4f}"

            checks.guarded("eventsim mean power within 2% of mva", agree)


# ----------------------------------------------------------------------
class ServiceClosedLoop:
    """One client, one 4-lane fleet session, one request at a time."""

    name = "service-closed-loop"
    LANES = ("MIX1", "ILP1", "MEM1", "MID1")
    N_CORES = 4
    STEPS = 1000
    #: Length of the max-frequency reference runs for degradation.
    BASELINE_EPOCHS = 200

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.session = {
            "workload": self.LANES[0],
            "n_cores": self.N_CORES,
            "budget_fraction": BUDGET,
            "seed": seed,
            "lanes": [{"workload": w} for w in self.LANES],
        }

    def first_build(self) -> None:
        from repro.service import create_app
        from repro.service.asgi import InProcessClient

        with InProcessClient(create_app()) as client:
            response = client.post("/sessions", json=self.session)
            if response.status_code != 201:
                raise RuntimeError(f"session create failed: {response.json()}")

    def rep(self, tracer=None) -> Rep:
        from repro.service import create_app
        from repro.service.asgi import InProcessClient

        app = create_app()
        steps: List[Tuple[float, int]] = []
        status: Dict[str, int] = {"attempted": 0, "failed": 0}
        windows: List[Tuple[float, float]] = []
        speed = HostSpeed() if tracer is None else None
        clock = time.perf_counter if speed is None else CLOCK

        with InProcessClient(app) as client:

            def call(method, path, body=None, step=False):
                span = None
                if tracer is not None and tracer.enabled:
                    span = tracer.open("service.step" if step else "service.request")
                t0 = clock()
                response = client.request(method, path, body)
                elapsed = clock() - t0
                stretch = 0
                if speed is not None:
                    stretch = speed.stretch
                    speed.tick()
                if span is not None:
                    tracer.close(span)
                    if 400 <= response.status_code < 500:
                        tracer.count("service.status_4xx")
                    elif response.status_code >= 500:
                        tracer.count("service.status_5xx")
                status["attempted"] += 1
                if not 200 <= response.status_code < 300:
                    status["failed"] += 1
                    print(
                        f"{method} {path} -> {response.status_code}: "
                        f"{response.body[:200]!r}",
                        flush=True,
                    )
                return response, (elapsed * 1e3, stretch)

            t_start = clock()
            created, _ = call("POST", "/sessions", self.session)
            sid = created.json().get("id")
            base = f"/sessions/{sid}"
            session = app.manager.sessions.get(sid)
            fault_id = None
            for step in range(1, self.STEPS + 1):
                _, sample = call("POST", f"{base}/step", {"epochs": 1}, step=True)
                steps.append(sample)
                if step % 10 == 0:
                    for lane in range(len(self.LANES)):
                        summary, _ = call(
                            "GET", f"{base}/telemetry/summary?lane={lane}&last=10"
                        )
                        body = summary.json()
                        if "max_power_w" in body:
                            windows.append((body["max_power_w"], body["budget_w"]))
                if step % 50 == 0:
                    fraction = 0.5 if (step // 50) % 2 else 0.7
                    call("POST", f"{base}/budget", {"budget_fraction": fraction})
                if step % 100 == 0:
                    call("GET", base)
                if step == 100:
                    call(
                        "POST",
                        f"{base}/phases",
                        {
                            "phases": [
                                {"duration_epochs": 100, "think_scale": 0.8},
                                {"duration_epochs": 100, "think_scale": 1.25},
                            ]
                        },
                    )
                if step == 300:
                    injected, _ = call(
                        "POST",
                        f"{base}/faults",
                        {"type": "degraded-memory-controller", "target": 0, "lane": 0},
                    )
                    faults = injected.json().get("faults") or [{}]
                    fault_id = faults[0].get("id")
                if step == 400:
                    call("DELETE", f"{base}/faults/{fault_id}?lane=0")
            call("DELETE", base)
            seconds = normalized = clock() - t_start
        if speed is not None:
            speed.close()
            seconds, normalized = speed.measured_s, speed.normalized_s
            steps_ms = speed.normalize(steps)
        else:
            steps_ms = [ms for ms, _ in steps]

        lanes = session.lanes if session is not None else []
        results = [lane.result for lane in lanes]
        epochs = sum(r.n_epochs for r in results if r is not None)
        self.results = results
        self.windows = windows
        complete = bool(results) and all(r is not None for r in results)
        return Rep(
            seconds,
            normalized,
            epochs,
            steps_ms,
            status["attempted"],
            status["failed"],
            digest(results) if complete else "",
        )

    def sim_metrics(self) -> Dict[str, float]:
        """Degradation against nominal-load max-frequency runs of the
        lanes' workloads, and the overshoot read from the telemetry
        summaries."""
        from repro.campaign import RunSpec
        from repro.campaign.runner import execute_fleet
        from repro.metrics.performance import summarize_degradation

        results = self.results
        baselines = execute_fleet(
            [
                RunSpec(
                    workload=w,
                    policy="max-freq",
                    budget_fraction=1.0,
                    n_cores=self.N_CORES,
                    seed=self.seed,
                    instruction_quota=None,
                    max_epochs=self.BASELINE_EPOCHS,
                    record_decision_time=False,
                )
                for w in self.LANES
            ]
        )
        return {
            **degradation_metrics(summarize_degradation(results, baselines)),
            # Every summary window lies between two budget changes, so
            # its budget is the one in force for all of its epochs.
            "sim_overshoot_max": max(p / b for p, b in self.windows),
        }

    def checks(self, checks: Checks, tracer=None) -> None:
        complete = [
            r is not None and r.n_epochs == self.STEPS for r in self.results
        ]
        checks.check(
            "service: every lane ran every step", all(complete) and complete
        )
        checks.check(
            "service: one telemetry summary per lane every 10 steps",
            len(self.windows) == len(self.LANES) * self.STEPS // 10,
        )


CASES = {
    case.name: case
    for case in (Fig9ExactFleet, Fig10RelaxedN64, EventsimValidation, ServiceClosedLoop)
}
