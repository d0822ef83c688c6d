"""The benchmark's workloads: what each trial runs and how it is checked.

Every workload is driven through the program's public API, one closed
loop with a single client: it submits, waits for every result, then
checks them.  A trial of a workload has four steps, which
``perfbench/trial.py`` times:

* ``start`` -- everything before the workload can take work (the
  imports happen just before it, in the trial);
* ``cold`` -- the workload's request against an empty result cache;
* ``warm`` -- the identical request again, served from that cache;
* ``stop`` -- release every process and file the trial opened.

``check`` turns what a pass returned into an :class:`Outcome`.  Its
``summary`` holds the values the reference file pins per seed, and its
``digest`` is a hash of the full outputs, so a warm pass and a traced
trial can be compared byte for byte with the cold untraced one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List


#: ``PERFBENCH_SMALL=1`` runs every workload at a size that takes
#: seconds, through the same code paths -- for the benchmark's own tests.
#: Reference outputs are recorded at full size only.
SMALL = os.environ.get("PERFBENCH_SMALL") == "1"


@dataclass
class Outcome:
    """What one pass produced and which of its checks failed."""

    attempted: int
    digest: str
    summary: Dict[str, Any]
    errors: List[str] = field(default_factory=list)


def _canonical_digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ServiceCampaign:
    """A ``CampaignDaemon`` with 1 shard, driven over its Unix socket.

    4 paper viruses x 100 replications at N=100 over a 5 h horizon: 400
    tiny core jobs, so the daemon's per-job overhead (journal, fsync'd
    checkpoint per completion, shard IPC, cache put, socket frame) is
    what the trial measures.
    """

    name = "service-campaign"
    why = (
        "400 tiny core jobs through the daemon over its socket: per-job "
        "journal, fsync, shard IPC, cache put and frame cost, cold and warm"
    )
    warm_passes = 5
    # The daemon is busy too (journal, checkpoints, frames): with it, one
    # shard fills the host's 2 CPUs.  A second shard oversubscribes them,
    # and cold passes of one seed then spread by 10-20%.
    shards = 1
    design: Dict[str, Any] = {
        "design": {
            "id": "perfbench-service",
            "title": "benchmark service campaign",
            "label": "{virus}-{population}",
            "replications": 5 if SMALL else 100,
        },
        "factor": [
            {"name": "virus", "levels": [1, 2, 3, 4]},
            {"name": "population", "levels": [100]},
            {"name": "duration", "levels": [5.0]},
        ],
    }
    jobs = 4 * design["design"]["replications"]

    def import_layers(self) -> None:
        import repro.service  # noqa: F401

    def start(self, workdir: Path, seed: int) -> Dict[str, Any]:
        import multiprocessing

        from repro.service import CampaignDaemon, ServiceClient

        spool = workdir / "spool"
        # A relative socket path keeps a deep checkout under the 108-byte
        # AF_UNIX limit; the trial runs with its work directory as cwd.
        socket_path = "spool/daemon.sock"

        def serve() -> None:
            CampaignDaemon(spool, shards=self.shards).serve(socket_path)

        # Forked, so a traced trial's wrappers reach the daemon and,
        # through it, the shards it forks in turn.
        daemon = multiprocessing.get_context("fork").Process(
            target=serve, name="perfbench-daemon"
        )
        daemon.start()
        client = ServiceClient(socket_path, timeout=120.0)
        try:
            client.wait_ready(timeout=60.0, interval=0.005)
        except BaseException:
            daemon.kill()
            daemon.join()
            raise
        return {"daemon": daemon, "client": client, "seed": seed}

    def cold(self, state: Dict[str, Any]) -> List[Dict[str, Any]]:
        client = state["client"]
        submitted = client.submit(self.design, seed=state["seed"])
        return list(client.results(submitted["id"]))

    warm = cold

    def check(self, frames: List[Dict[str, Any]], state: Dict[str, Any]) -> Outcome:
        seed = state["seed"]
        errors = []
        seen: Dict[int, int] = {}
        infected = 0
        for frame in frames:
            index = frame.get("index")
            seen[index] = seen.get(index, 0) + 1
            result = frame.get("result", {})
            count = len(result.get("infection_times", ()))
            infected += count
            if count > result.get("susceptible_count", -1):
                errors.append(f"job {index}: {count} infected exceeds susceptible")
            if result.get("seed") != seed:
                errors.append(f"job {index}: ran with seed {result.get('seed')}")
        for index in range(self.jobs):
            if seen.get(index, 0) != 1:
                errors.append(f"job {index} delivered {seen.get(index, 0)} times")
        errors.extend(
            f"unexpected job index {index!r}"
            for index in seen
            if not (isinstance(index, int) and 0 <= index < self.jobs)
        )
        return Outcome(
            attempted=self.jobs,
            digest=_canonical_digest(frames),
            summary={"results": len(frames), "infected": infected},
            errors=errors,
        )

    def stop(self, state: Dict[str, Any]) -> None:
        daemon = state["daemon"]
        try:
            state["client"].shutdown()
        except OSError:
            pass
        daemon.join(timeout=30.0)
        if daemon.is_alive():
            daemon.kill()
            daemon.join()


class FrontierCore:
    """Response-time frontier of Virus 1 + blacklist on the core engine.

    Latency axis [0, 168] h, tolerance 4 h, 3 replications per probe,
    N=1000, through ``ReplicationScheduler(processes=2)``: few heavy jobs
    whose wall time is the scheduler, the worker pool and the DES loop.
    """

    name = "frontier-core"
    why = (
        "frontier bisection, 3 heavy core jobs per probe on a 2-worker "
        "pool: scheduler, pool dispatch, DES loop, repeated graph builds"
    )
    warm_passes = 20
    replications = 3
    tolerance = 4.0
    low, high = 0.0, 168.0
    population = 300 if SMALL else 1000

    def import_layers(self) -> None:
        import repro.experiments.scheduler  # noqa: F401
        import repro.frontier  # noqa: F401

    def start(self, workdir: Path, seed: int) -> Dict[str, Any]:
        from repro.core.cache import ResultCache
        from repro.core.parameters import BlacklistConfig, NetworkParameters
        from repro.core.scenarios import baseline_scenario
        from repro.experiments.scheduler import ReplicationScheduler
        from repro.frontier import FrontierSolver

        scenario = baseline_scenario(
            1, network=NetworkParameters(population=self.population)
        ).with_responses(BlacklistConfig(threshold=10), suffix="blacklist")
        scheduler = ReplicationScheduler(
            processes=2, cache=ResultCache(workdir / "cache")
        )
        solver = FrontierSolver(
            scheduler,
            replications=self.replications,
            seed=seed,
            tolerance=self.tolerance,
        )
        return {"scheduler": scheduler, "solver": solver, "scenario": scenario}

    def cold(self, state: Dict[str, Any]) -> Any:
        return state["solver"].solve(state["scenario"], low=self.low, high=self.high)

    warm = cold

    def check(self, result: Any, state: Dict[str, Any]) -> Outcome:
        errors = []
        probes = []
        for probe in result.probes:
            probes.append([probe.value, list(probe.finals), probe.contained])
            if len(probe.finals) != self.replications:
                errors.append(
                    f"probe {probe.value}: {len(probe.finals)} results "
                    f"for {self.replications} replications"
                )
        susceptible = state["scenario"].network.susceptible_count
        errors.extend(
            f"probe {value}: final {final} exceeds {susceptible} susceptible"
            for value, finals, _ in probes
            for final in finals
            if final > susceptible
        )
        if result.jobs_scheduled != self.replications * len(result.probes):
            errors.append(
                f"{result.jobs_scheduled} jobs scheduled for "
                f"{len(result.probes)} probes"
            )
        if result.jobs_executed + result.cache_hits != result.jobs_scheduled:
            errors.append("executed + cache hits != jobs scheduled")
        low, high = result.interval
        if high - low > self.tolerance:
            errors.append(f"bracket width {high - low} exceeds tolerance")
        document = {
            "probes": probes,
            "critical": result.critical,
            "interval": [low, high],
            "status": result.status,
        }
        return Outcome(
            attempted=result.jobs_scheduled,
            digest=_canonical_digest(document),
            summary={
                "critical": result.critical,
                "interval": [low, high],
                "probes": len(result.probes),
                "jobs": result.jobs_scheduled,
            },
            errors=errors,
        )

    def stop(self, state: Dict[str, Any]) -> None:
        state["scheduler"].close()


class XLDial:
    """One Virus 3 (random dialing) replication on the xl engine.

    ``xl-100k`` preset over 24 h, through a one-process scheduler: a real
    epidemic runs through the xl round loop, and no topology is built.
    """

    name = "xl-dial-100k"
    why = (
        "Virus 3 random dialing at N=100k: a real epidemic through the "
        "xl round loop with no topology build, the control for topology work"
    )
    warm_passes = 10
    virus = 3
    preset = "xl-10k" if SMALL else "xl-100k"
    duration = 24.0

    def import_layers(self) -> None:
        import repro.experiments.scheduler  # noqa: F401
        import repro.xl.engine  # noqa: F401

    def start(self, workdir: Path, seed: int) -> Dict[str, Any]:
        from repro.core.cache import ResultCache
        from repro.experiments.scheduler import ReplicationScheduler
        from repro.xl.presets import xl_scenario

        scheduler = ReplicationScheduler(
            processes=1, cache=ResultCache(workdir / "cache")
        )
        config = xl_scenario(self.virus, self.preset, duration=self.duration)
        return {"scheduler": scheduler, "config": config, "seed": seed}

    def cold(self, state: Dict[str, Any]) -> Any:
        return state["scheduler"].replicate(
            state["config"], replications=1, seed=state["seed"]
        )

    warm = cold

    def check(self, replication_set: Any, state: Dict[str, Any]) -> Outcome:
        seed = state["seed"]
        errors = []
        if len(replication_set.results) != 1:
            errors.append(f"{len(replication_set.results)} results for 1 job")
        result = replication_set.results[0]
        infected = result.total_infected
        if infected > result.susceptible_count:
            errors.append(
                f"{infected} infected exceeds {result.susceptible_count} susceptible"
            )
        if result.seed != seed:
            errors.append(f"ran with seed {result.seed}")
        return Outcome(
            attempted=1,
            # Built from the result's fields rather than through the
            # program's serializer, which a traced trial is timing.
            digest=_canonical_digest(
                {
                    "infection_times": list(result.infection_times),
                    "counters": result.counters,
                    "response_stats": result.response_stats,
                    "detection_time": result.detection_time,
                    "patient_zero": result.patient_zero,
                    "final_time": result.final_time,
                }
            ),
            summary={
                "infected": infected,
                "events": result.counters["events_fired"],
                "rounds": result.counters["xl_rounds"],
            },
            errors=errors,
        )

    def stop(self, state: Dict[str, Any]) -> None:
        state["scheduler"].close()


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        ServiceCampaign(),
        FrontierCore(),
        XLDial(),
    )
}
