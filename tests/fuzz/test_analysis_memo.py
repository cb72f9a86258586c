"""The fixed three-program fuzz batch (base seed 0, both ISAs, all seven
tiers) analyses each distinct machine-code body exactly once, with no
divergence across the ladder."""

from __future__ import annotations

import pytest

from repro.analysis import typeflow
from repro.fuzz import fuzz_case_seed, generate_program, run_fuzz_program
from repro.machine import artifacts

BATCH_SEED = 0
BATCH_PROGRAMS = 3


@pytest.mark.slow
def test_fuzz_batch_runs_typeflow_once_per_body(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_FUZZ", raising=False)
    artifacts.clear()
    runs = []
    keys = set()
    real_run = typeflow._Typeflow.run
    real_analyze = typeflow.analyze_typeflow

    def counted_run(self):
        runs.append(self.function)
        return real_run(self)

    def keyed_analyze(code):
        keys.add(artifacts.content_key(code))
        return real_analyze(code)

    monkeypatch.setattr(typeflow._Typeflow, "run", counted_run)
    monkeypatch.setattr(typeflow, "analyze_typeflow", keyed_analyze)
    divergences = 0
    for index in range(BATCH_PROGRAMS):
        program = generate_program(fuzz_case_seed(BATCH_SEED, index))
        verdict = run_fuzz_program(program, capture=False, with_profile=False)
        divergences += not verdict.ok
    assert divergences == 0
    assert keys, "the batch compiled no analysed code"
    assert len(keys) <= artifacts.ARTIFACT_CAPACITY
    assert len(runs) == len(keys)
