"""Repository benchmark: end-to-end and per-layer metrics on two clocks.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 8 --trace 0

Workloads (see ``workloads.py``): ``steady`` (hot generated code on the
whole suite), ``figures`` (the Fig. 7 smoke grid through the scheduler
pool, cold path) and ``fuzz`` (generated programs through the seven-tier
differential oracle on both ISAs).

Each round runs in a fresh interpreter process (``round.py``) with the
disk cache and crash bundles off.  Full rounds (set-up plus timed work)
repeat until ``--seconds`` of timed work have run, and at least the
workload's ``min_rounds`` (host speed differs from one process to the
next, so two processes steady a short timed phase); set-up-only rounds
then bring the run to the workload's ``min_setups`` set-up samples.
Timings are medians over rounds; ``run()`` latency percentiles are taken
relative to each engine's median (see :func:`end_to_end`).  The timed work
(``host_s`` and ``iter_ms_*``) is reported at a reference host speed,
measured by a probe before every timed ``run()`` call (see ``layers.py``);
``setup_s`` is raw wall time.
``--trace 1`` alternates traced and untraced full rounds and reports the
per-layer metrics instead, plus ``trace.overhead``.

Simulated-clock and count metrics must repeat exactly: across the rounds
of a run, between traced and untraced rounds, and across runs of the same
engine, benchmark sources and seed (recorded under
``.bench_build/perfbench/exact``).  A mismatch is an error, reported as
``"correct": false``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import HOST_METRICS, LAYER_UNITS
from workloads import FUZZ_BASE_SEED, FUZZ_PROGRAMS, WORKLOADS, geomean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"

#: no round starts when the slowest round so far would end past this many
#: seconds into the run, and none may run past ROUND_TIMEOUT_S: a run must
#: end within 180 s
ROUND_BUDGET_S = 160.0
ROUND_TIMEOUT_S = 175.0

#: environment knobs that change which tiers run or add checks: a run that
#: inherits one would measure another configuration, so it is refused
FORBIDDEN_PREFIXES = (
    "REPRO_BLOCKJIT",
    "REPRO_TYPED_BLOCKS",
    "REPRO_TRACEJIT",
    "REPRO_LBBV",
    "REPRO_CONTINUATIONS",
    "REPRO_CONT_BUDGET",
    "REPRO_VERIFY",
    "REPRO_AUDIT",
    "REPRO_CHAOS",
)

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "host_s": "s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "sim_cycles_per_iter": "cycles",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 2)."""


def default_jobs() -> int:
    """Pool workers of the figures workload (recorded in the provenance).

    One per core, capped so a large host does not fan the 36-cell grid
    out to dozens of ~100 MB workers.
    """
    return max(1, min(os.cpu_count() or 1, 4))


def child_env(jobs: int) -> Dict[str, str]:
    inherited = sorted(
        name for name in os.environ if name.startswith(FORBIDDEN_PREFIXES)
    )
    if inherited:
        raise BenchError(
            "refusing to run with engine knobs set: " + ", ".join(inherited)
        )
    # Compiled bytecode is kept under .bench_build (the checkout holds none
    # and the environment may forbid writing it next to the sources), so
    # set-up times the imports users see, not compiling the sources anew.
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        REPRO_CACHE="0",
        REPRO_CACHE_DIR=str(STATE / "cache"),
        REPRO_BUNDLES="0",
        REPRO_BUNDLE_DIR=str(STATE / "bundles"),
        REPRO_WAL_DIR=str(STATE / "wal"),
        REPRO_JOBS=str(jobs),
        TMPDIR=str(STATE / "tmp"),
        PYTHONPYCACHEPREFIX=str(STATE / "pycache"),
    )
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_round(workload: str, seed: int, trace: int, jobs: int, env, timeout: float,
              setup_only: bool = False) -> dict:
    """One round in a fresh process; returns its JSON record."""
    spool = STATE / "spool" / f"{os.getpid()}-{time.monotonic_ns()}"
    command = [
        sys.executable, str(HERE / "round.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--jobs", str(jobs),
        "--spool", str(spool),
    ] + (["--setup-only"] if setup_only else [])
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round did not finish within {timeout:.0f} s")
    finally:
        # The round's pool workers share its process group: stop any the
        # round left behind, then reap the round itself.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(spool, ignore_errors=True)
    if process.returncode != 0:
        raise BenchError(f"{workload} round exited with code {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} round printed no result")
    return json.loads(lines[-1])


def run_rounds(args, env) -> Tuple[List[dict], List[dict]]:
    """Full rounds until ``--seconds`` of timed work and the workload's
    ``min_rounds``, then set-up samples.

    Returns ``(rounds, setups)``: the full rounds (traced runs alternate
    traced and untraced ones) and the set-up-only rounds that bring an
    untraced run to the workload's ``min_setups`` set-up samples.
    """
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    rounds: List[dict] = []
    setups: List[dict] = []
    slowest = 0.0

    def launch(trace: int, setup_only: bool) -> dict:
        nonlocal slowest
        began = time.monotonic()
        record = run_round(
            args.workload, args.seed, trace, args.jobs, env,
            timeout=ROUND_TIMEOUT_S - (began - start), setup_only=setup_only,
        )
        slowest = max(slowest, time.monotonic() - began)
        record["traced"] = bool(trace)
        return record

    def out_of_time(estimate: float) -> bool:
        return time.monotonic() - start + estimate > ROUND_BUDGET_S

    while True:
        plain = [r for r in rounds if not r["traced"]]
        traced = len(rounds) - len(plain)
        enough = sum(r["host_s"] for r in plain) >= args.seconds
        if args.trace:
            done = enough and traced >= 1
            trace = 1 if traced <= len(plain) else 0
        else:
            done = enough and len(plain) >= workload.min_rounds
            trace = 0
        if done or (rounds and out_of_time(slowest)):
            break
        rounds.append(launch(trace, setup_only=False))
    while not args.trace and len(rounds) + len(setups) < workload.min_setups:
        estimate = max(r["setup_s"] for r in rounds + setups)
        if out_of_time(estimate):
            break
        setups.append(launch(0, setup_only=True))
    return rounds, setups


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def benchmark_digest() -> str:
    """sha256 of the benchmark's own sources and ``BENCHMARK.json``.

    Part of the key of the cross-run exactness record: a change to the
    benchmark (its op counts, timed work or metrics) starts a new record
    instead of contradicting the one an earlier version left.
    """
    digest = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"]:
        if path.is_file():
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def exactness_errors(args, rounds: List[dict]) -> List[str]:
    """Simulated and count results that did not repeat exactly."""
    errors: List[str] = []
    reference = rounds[0]["exact"]
    for index, record in enumerate(rounds[1:], 1):
        if record["exact"] != reference:
            errors.append(f"round {index} differs from round 0: {diff(reference, record['exact'])}")
    traced = [r for r in rounds if r["traced"]]
    exempt = set(HOST_METRICS)
    if args.workload == "figures":
        # compile() memo hits depend on which pool worker ran which cell
        exempt.add("machine.py_compile_calls")
    layer_exact = [
        {k: v for k, v in r["layers"].items() if k not in exempt} for r in traced
    ]
    for index, layers in enumerate(layer_exact[1:], 1):
        if layers != layer_exact[0]:
            errors.append(f"traced round {index} differs: {diff(layer_exact[0], layers)}")
    recorded = {"exact": reference, "layers": layer_exact[0] if layer_exact else None}
    path = STATE / "exact" / (
        f"{rounds[0]['fingerprint'][:16]}-{benchmark_digest()[:16]}"
        f"-{args.workload}-seed{args.seed}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["exact"] != reference:
            errors.append(f"differs from an earlier run: {diff(earlier['exact'], reference)}")
        if recorded["layers"] is not None:
            if earlier.get("layers") is None:
                earlier["layers"] = recorded["layers"]
                path.write_text(json.dumps(earlier))
            elif earlier["layers"] != recorded["layers"]:
                errors.append(
                    "layers differ from an earlier traced run: "
                    + diff(earlier["layers"], recorded["layers"])
                )
    else:
        path.write_text(json.dumps(recorded))
    return errors


def diff(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in keys[:5])


def end_to_end(rounds: List[dict], setups: List[dict]) -> Dict[str, float]:
    plain = [r for r in rounds if not r["traced"]]
    # Each program's run() calls cluster around its own cost, so a
    # percentile of the pooled calls jumps between programs on small timing
    # changes.  p50 is the geometric mean of the engines' medians; p90 is
    # p50 times the 90th percentile of every call relative to its engine's
    # median, so a few slow calls move it by their share of all calls.
    groups = [group for r in plain for group in r["iter_ms"]]
    samples = sum(len(group) for group in groups)
    if samples < 100:
        raise BenchError(f"only {samples} run() samples; p90 needs 100")
    medians = [percentile(group, 0.5) for group in groups]
    relative = [ms / median for group, median in zip(groups, medians) for ms in group]
    p50 = geomean(medians)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain + setups),
        "host_s": statistics.median(r["host_s"] for r in plain),
        "iter_ms_p50": p50,
        "iter_ms_p90": p50 * percentile(relative, 0.9),
        "sim_cycles_per_iter": plain[0]["exact"]["sim_cycles_per_iter"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_ratio": 1.0 - sum(r["failed"] for r in plain + setups) / sum(
            r["attempted"] for r in plain + setups
        ),
    }


def per_layer(rounds: List[dict]) -> Dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    for name in LAYER_UNITS:
        if name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            metrics[name] = statistics.median(values) if name in HOST_METRICS else values[0]
    metrics["trace.overhead"] = statistics.median(r["host_s"] for r in traced) / statistics.median(
        r["host_s"] for r in plain
    )
    return metrics


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain trees
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.jobs = default_jobs()
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no engine sources under {ROOT / 'src'}")
        env = child_env(args.jobs)
        rounds, setups = run_rounds(args, env)
        errors = exactness_errors(args, rounds)
        metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setups)
    except BenchError as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        return 2
    units = LAYER_UNITS if args.trace else E2E_UNITS
    attempted = sum(r["attempted"] for r in rounds + setups)
    failed = sum(r["failed"] for r in rounds + setups)
    reasons = [reason for r in rounds + setups for reason in r["reasons"]]
    for message in errors + reasons[:10]:
        print(f"perfbench: ERROR: {message}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "engine_fingerprint": rounds[0]["fingerprint"],
        "fuzz_batch": {"base_seed": FUZZ_BASE_SEED, "programs": FUZZ_PROGRAMS},
        "samples": {
            "rounds": len(plain),
            "traced_rounds": len(rounds) - len(plain),
            "setup_s": len(plain) + len(setups),
            "iter_ms": sum(len(g) for r in plain for g in r["iter_ms"]),
            "iter_ms_engines": sum(len(r["iter_ms"]) for r in plain),
        },
        "rounds": [
            {key: r.get(key) for key in ("traced", "setup_s", "host_s", "wall_s", "probe_s")}
            for r in rounds + setups
        ],
        "exact": rounds[0]["exact"],
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:34s} {value:>18.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
