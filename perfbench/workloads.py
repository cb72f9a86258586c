"""The benchmark's three workloads, each split into set-up and timed work.

A workload object is built in a fresh round process (see ``round.py``):
:meth:`setup` does everything before the first timed operation and
:meth:`timed` does the fixed timed work, counting every operation and
every operation whose output fails its check.  Both go through the
engine's public API only.

* ``steady`` -- every suite program on one warmed ``Engine`` each: hot
  generated tier code, heap, runtime calls and GC.
* ``figures`` -- the Fig. 7 smoke grid through ``repro.exec`` on a
  process pool with the disk cache off: the cold path (interpreter,
  typeflow, tier code generation, PC sampler, scheduler).
* ``fuzz`` -- generated programs through the differential oracle on both
  ISAs and all seven executor tiers: speculation built to fail.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from typing import Dict, List

#: warm-up ``run()`` calls per steady program: tier-up happens by the 8th
#: call at the default thresholds and by the 10th under the noise model's
#: +35 % threshold jitter, so 12 leaves every hot function compiled.
STEADY_WARMUP = 12
#: timed ``run()`` calls per steady program and round (about 6 s a round)
STEADY_TIMED = 8

#: the Fig. 7 grid the figures workload regenerates
FIGURES_SCALE = "smoke"
FIGURES_TARGET = "arm64"

#: generator base seed and size of the fuzz batch.  Generated programs
#: cost 2-17 s each through the oracle, so a batch drawn afresh from every
#: ``--seed`` would make ``host_s`` a property of the draw, not of the
#: engine: the batch is fixed, and ``--seed`` does not change it.
FUZZ_BASE_SEED = 0
FUZZ_PROGRAMS = 3


def geomean(values: List[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


class _SteadyProgram:
    """One suite program on its own engine, stepped one ``run()`` at a time."""

    def __init__(self, spec, seed: int) -> None:
        from repro.engine import Engine, EngineConfig
        from repro.suite import NoiseModel
        from repro.suite.runner import _consistent, stable_seed

        # The suite runner's per-repetition noise (tier-up threshold and
        # GC cadence jitter), drawn with --seed as the repetition.
        noise = NoiseModel(enabled=True)
        rng = random.Random((stable_seed(spec.name) & 0xFFFFFFF) * 1000003 + seed)
        config = noise.perturb_config(EngineConfig(target="arm64"), rng)
        self.gc_period = noise.gc_period(rng)
        self.spec = spec
        #: the suite runner's rule for iteration results that agree
        self.consistent = _consistent
        self.engine = Engine(config)
        self.engine.load(spec.source)
        self.engine.call_global("setup")
        self.iteration = 0
        self.reference: object = None

    def step(self, tally: Tally) -> None:
        engine = self.engine
        engine.current_iteration = self.iteration
        value = engine.call_global("run")
        if self.iteration == 0:
            self.reference = value
        ok = self.spec.validate(value) and self.consistent(self.spec, value, self.reference)
        tally.record(ok, f"{self.spec.name} iteration {self.iteration}: {value!r}")
        if engine.config.gc_between_iterations and (
            self.iteration % self.gc_period == self.gc_period - 1
        ):
            engine.run_gc()
        self.iteration += 1


class Workload:
    """Set-up, timed work, output checks and results of one round."""

    name = ""
    #: full rounds per untraced run at least (host_s is their median)
    min_rounds = 1
    #: set-up samples per untraced run at least (setup_s is their median)
    min_setups = 5

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs

    def setup(self, tally: Tally, hooks) -> None:
        raise NotImplementedError

    def timed(self, tally: Tally, hooks) -> None:
        raise NotImplementedError

    def check(self, tally: Tally, hooks) -> None:
        """Output checks that need the finished timed work (after the clock)."""

    def cache_hits(self) -> int:
        """Requested results served without being computed (``exec.cache_hits``)."""
        return 0

    def results(self, hooks) -> Dict[str, object]:
        raise NotImplementedError

    def fuzz_stats(self) -> Dict[str, float]:
        """The fuzz layer's own figures (empty off the fuzz workload)."""
        return {}


class Steady(Workload):
    name = "steady"
    # Set-up warms 31 engines (about 17 s), so both samples come from the
    # two full rounds; a third would make every steady run a third longer.
    min_rounds = 2
    min_setups = 2

    def setup(self, tally: Tally, hooks) -> None:
        from repro.suite import all_benchmarks

        self.programs: List[_SteadyProgram] = []
        for spec in all_benchmarks():
            program = _SteadyProgram(spec, self.seed)
            for _ in range(STEADY_WARMUP):
                program.step(tally)
            self.programs.append(program)

    def timed(self, tally: Tally, hooks) -> None:
        self.cycles: List[float] = []
        for program in self.programs:
            before = program.engine.total_cycles
            for _ in range(STEADY_TIMED):
                program.step(tally)
            self.cycles.append((program.engine.total_cycles - before) / STEADY_TIMED)

    def results(self, hooks) -> Dict[str, object]:
        return {
            "iter_ms": hooks.iter_ms,
            "sim_cycles_per_iter": geomean(self.cycles),
            "exact": {"program_cycles": self.cycles},
        }


class Figures(Workload):
    name = "figures"
    min_rounds = 2

    def setup(self, tally: Tally, hooks) -> None:
        from repro.exec import configure
        from repro.experiments import fig07_speedups  # noqa: F401  (import is set-up)
        from repro.experiments.common import resolve_scale, suite_for_scale

        configure(jobs=self.jobs, cache=False, keep_going=True)
        self.scale = resolve_scale(FIGURES_SCALE)
        self.specs = suite_for_scale(self.scale)

    def timed(self, tally: Tally, hooks) -> None:
        from repro.experiments import fig07_speedups

        self.figure = fig07_speedups.run(self.scale, FIGURES_TARGET).to_text()

    def results(self, hooks) -> Dict[str, object]:
        return {
            "iter_ms": hooks.iter_ms,
            "sim_cycles_per_iter": geomean(self._with_checks_cycles()),
            "exact": {"figure_sha256": hashlib.sha256(self.figure.encode()).hexdigest()},
        }

    def check(self, tally: Tally, hooks) -> None:
        """One op per grid cell: computed in this round, not failed, every run valid.

        A cell this round did not compute was served from a cache (the
        disk cache or the experiments' in-process memo), so its time is
        missing from ``host_s``: that counts as a failed op too.
        """
        from repro.exec import profiled_cell, quarantined_cells, removable_cell, timed_cell
        from repro.experiments.common import CACHE

        quarantined = set(quarantined_cells())
        computed = set(hooks.computed)
        self.missing = 0

        def record(cell, valid: bool) -> None:
            fresh = cell.key() in computed
            self.missing += not fresh
            reason = "served without being computed" if not fresh else "failed or invalid"
            tally.record(fresh and cell not in quarantined and valid, f"{cell.describe()}: {reason}")

        scale, target = self.scale, FIGURES_TARGET
        for spec in self.specs:
            cell = removable_cell(spec, target)
            removable, _ = CACHE.removable_kinds(spec, target)
            record(cell, True)
            cell = profiled_cell(spec, target, scale.iterations)
            profiled = CACHE.profiled_run(spec, target, scale.iterations)
            record(cell, profiled.run.valid)
            for rep in range(scale.reps):
                for removed in (frozenset(), removable):
                    cell = timed_cell(spec, target, scale.iterations, rep, removed)
                    run = CACHE.timed_run(spec, target, scale.iterations, rep, removed)
                    record(cell, run.valid)

    def cache_hits(self) -> int:
        return self.missing

    def _with_checks_cycles(self) -> List[float]:
        from repro.experiments.common import CACHE

        scale = self.scale
        per_benchmark = []
        for spec in self.specs:
            runs = [
                CACHE.timed_run(spec, FIGURES_TARGET, scale.iterations, rep)
                for rep in range(scale.reps)
            ]
            per_benchmark.append(
                math.fsum(run.total_time / run.iterations for run in runs) / len(runs)
            )
        return per_benchmark


class Fuzz(Workload):
    name = "fuzz"

    def setup(self, tally: Tally, hooks) -> None:
        start = time.perf_counter()
        self.programs = fuzz_batch()
        self.generate_s = time.perf_counter() - start

    def timed(self, tally: Tally, hooks) -> None:
        from repro.fuzz import run_fuzz_program

        self.divergences = 0
        for program in self.programs:
            try:
                verdict = run_fuzz_program(program, capture=False, with_profile=False)
            except Exception as failure:  # an engine crash is a failed op
                tally.record(False, f"{program.name}: {type(failure).__name__}: {failure}")
                continue
            if not verdict.ok:
                self.divergences += 1
            tally.record(verdict.ok, f"{program.name}: {verdict.mismatches[:3]}")
            if hooks.traced:
                hooks.harvest()

    def fuzz_stats(self) -> Dict[str, float]:
        return {"generate_s": self.generate_s, "divergences": self.divergences}

    def results(self, hooks) -> Dict[str, object]:
        return {
            "iter_ms": hooks.iter_ms,
            "sim_cycles_per_iter": geomean(hooks.run_cycles),
            "exact": {"batch_sha256": batch_digest(self.programs), "run_cycles": hooks.run_cycles},
        }


def fuzz_batch():
    """The fuzz workload's programs, in run order."""
    from repro.fuzz import fuzz_case_seed, generate_program

    return [
        generate_program(fuzz_case_seed(FUZZ_BASE_SEED, index))
        for index in range(FUZZ_PROGRAMS)
    ]


def batch_digest(programs) -> str:
    digest = hashlib.sha256()
    for program in programs:
        digest.update(program.source.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (Steady, Figures, Fuzz)}
