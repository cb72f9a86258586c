"""Content-addressed analysis memo (repro.machine.artifacts): memoized
results equal fresh ones, the key covers every analysed input, the
check-site deopt token equals the classification-derived one, and the
memo keeps no engine alive."""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import pytest

from repro.analysis import typeflow
from repro.analysis.typeflow import (
    VersionAnalysis,
    analyze_typeflow,
    render_fact,
    version_analysis,
)
from repro.engine import EngineConfig
from repro.isa.base import ARM64, CC, X64, MachineInstr, MOp
from repro.jit.checks import CheckKind
from repro.jit.codegen import CodeObject
from repro.jit.deopt import DeoptPoint
from repro.machine import artifacts
from repro.machine.continuations import continuation_token, dispatch_fact
from repro.suite import compile_benchmark, get_benchmark
from repro.suite.spec import all_benchmarks
from repro.suite.runner import BenchmarkRunner
from repro.values.maps import ElementsKind

SMOKE = ("FIB", "SPMV-CSR-INT", "RICH")


def _classification_token(code, check_id):
    """The deopt token as derived from the full typeflow classification."""
    verdict = analyze_typeflow(code).classifications.get(check_id)
    if verdict is not None and verdict.fact is not None:
        return "!" + render_fact(verdict.fact)
    point = code.deopt_points.get(check_id)
    return "!" + (point.kind.name if point is not None else f"check{check_id}")


def _assert_memo_matches_fresh(name, target):
    """Compile the program twice: the second engine's code objects are
    new objects whose analyses come from the first engine's entries,
    and each must equal an uncached run over that very object."""
    spec = get_benchmark(name)
    config = EngineConfig(target=target)
    first = compile_benchmark(spec, config, iterations=20)
    for code in first._code_objects:
        analyze_typeflow(code)
        version_analysis(code)
    second = compile_benchmark(spec, config, iterations=20)
    assert second._code_objects
    for code in second._code_objects:
        fresh = typeflow._Typeflow(code).run()
        assert analyze_typeflow(code).to_json() == fresh.to_json()
        assert version_analysis(code).static_entry == \
            VersionAnalysis(code).static_entry
        for check_id in code.deopt_points:
            assert continuation_token(code, check_id) == \
                _classification_token(code, check_id)
            verdict = fresh.classifications.get(check_id)
            assert dispatch_fact(code, check_id) == (
                verdict.fact if verdict is not None else None
            )


@pytest.mark.parametrize("target", ("arm64", "x64"))
@pytest.mark.parametrize("name", SMOKE)
def test_memo_matches_fresh_analysis(name, target):
    _assert_memo_matches_fresh(name, target)


@pytest.mark.slow
@pytest.mark.parametrize("target", ("arm64", "x64"))
@pytest.mark.parametrize(
    "name", [spec.name for spec in all_benchmarks() if spec.name not in SMOKE]
)
def test_memo_matches_fresh_analysis_whole_suite(name, target):
    _assert_memo_matches_fresh(name, target)


# -- key sensitivity ------------------------------------------------------


class _FakeMap:
    def __init__(self, address, kind):
        self.address = address
        self.elements_kind = kind


def _hand_code(name="hand", target=ARM64, imm=4, kind=CheckKind.NOT_A_SMI,
               elements_kind=ElementsKind.PACKED_SMI):
    shared = SimpleNamespace(info=SimpleNamespace(name=name))
    code = CodeObject(shared, target)
    code.instrs = [
        MachineInstr(MOp.MOVI, dst=8, imm=imm),
        MachineInstr(MOp.MOVI, dst=9, imm=5),
        MachineInstr(MOp.ADD, dst=10, s1=8, s2=9),
        MachineInstr(MOp.TSTI, s1=10, imm=1, check_id=0),
        MachineInstr(MOp.BCC, target=6, cc=CC.NE, check_id=0,
                     is_deopt_branch=True),
        MachineInstr(MOp.RET, s1=10),
        MachineInstr(MOp.DEOPT, imm=0),
    ]
    code.deopt_points = {0: DeoptPoint(0, kind, 0, ())}
    code.map_dependencies = {_FakeMap(500, elements_kind)}
    return code


def test_key_ignores_uid_and_comment():
    a, b = _hand_code(), _hand_code()
    b.instrs[0].comment = "another comment"
    assert a.instrs[0].uid != b.instrs[0].uid
    assert artifacts.content_key(a) == artifacts.content_key(b)


@pytest.mark.parametrize("variant", [
    {"imm": 0.0},
    {"kind": CheckKind.WRONG_MAP},
    {"elements_kind": ElementsKind.PACKED_DOUBLE},
    {"target": X64},
    {"name": "other"},
])
def test_key_covers_every_analysed_input(variant):
    base = {"imm": -0.0} if "imm" in variant else {}
    assert artifacts.content_key(_hand_code(**base)) != \
        artifacts.content_key(_hand_code(**variant))


def test_key_is_cached_on_the_code_object():
    code = _hand_code()
    key = artifacts.content_key(code)
    assert code._content_key == key
    assert artifacts.content_key(code) is key


def test_equal_content_shares_one_analysis():
    a, b = _hand_code(), _hand_code()
    assert analyze_typeflow(a) is analyze_typeflow(b)
    assert version_analysis(a) is version_analysis(b)


def test_lru_is_bounded():
    lru = artifacts._LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)
    assert lru.get("b") is None
    assert (lru.get("a"), lru.get("c"), len(lru)) == (1, 3, 2)


# -- no engine kept alive ---------------------------------------------------


def test_engine_is_collectable_after_a_run():
    """Memo entries hold plain data only: once a run is over, nothing in
    the process-wide memo reaches its engine."""
    artifacts.clear()
    runner = BenchmarkRunner(get_benchmark("FIB"), EngineConfig(target="arm64"))
    runner.run(iterations=12)
    engine_ref = weakref.ref(runner.last_engine)
    assert len(artifacts._ARTIFACTS) > 0
    del runner
    gc.collect()
    assert engine_ref() is None
