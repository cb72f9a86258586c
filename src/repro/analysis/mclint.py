"""Static linter for compiled :class:`~repro.jit.codegen.CodeObject`s.

Five families of checks over the emitted machine code, for both ISA
shapes:

* **control** — every branch target lands inside the code object (an
  unpatched ``-1`` target means a forgotten fixup);
* **block partition** — the fused-block partition the block-compiled
  executor (:mod:`repro.machine.blockjit`) batches timing over is
  validated against the label/branch structure: spans tile the code in
  order, every branch target starts a block, and no block crosses a
  branch, call, or deopt commit point (``jsldrsmi``/``DEOPT``) — i.e.
  every such instruction is the *last* of its block, which is what makes
  block-batched statistics and the single-add cycle charge exact;
* **deopt wiring** — every deopt branch jumps to a registered bailout
  stub whose ``DEOPT`` immediate matches the branch's check id; every
  stub's check id has a :class:`DeoptPoint`; frame-state locations name
  allocatable registers/slots only (a scratch register in a frame state
  is a value the check-condition emission may clobber before the deopt
  reads it);
* **dataflow** — a forward defined-before-use analysis over the machine
  CFG (meet = intersection): no integer/float register, frame slot or
  condition flag is consumed before something defines it, including the
  implicit reads of ``RET``, ``DEOPT`` frame states and call arguments;
* **attribution shape** — the run of condition instructions feeding each
  deopt branch is compared against the target's ``check_window`` (1 on
  x64, 2 on ARM64).  Mismatches are exactly the window-heuristic
  attribution bias of paper §III-A, so they are reported as INFO, never
  raised on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.base import MachineInstr, MOp
from ..isa.semantics import (
    BLOCK_END_OPS,
    FUSED_BLOCK_END_OPS,
    InstrEffect,
    effect_of,
    fused_block_edges,
    fused_block_leaders,
    leaders_of,
    successors_of,
)
from ..jit.codegen import CodeObject
from ..machine.blockjit import block_spans
from ..jit.deopt import Location
from .diagnostics import Diagnostic, Severity, errors
from .verifier import VerificationError


def lint_code(code: CodeObject) -> List[Diagnostic]:
    """Lint one compiled code object; returns diagnostics (never raises)."""
    return _Linter(code).run()


def assert_lint_clean(code: CodeObject) -> List[Diagnostic]:
    """Lint and raise :class:`VerificationError` on any error."""
    diagnostics = lint_code(code)
    bad = errors(diagnostics)
    if bad:
        name = code.shared.info.name
        raise VerificationError(
            f"machine-code lint failed for {name!r} [{code.target.name}]", bad
        )
    return diagnostics


#: Dataflow state: (int-reg mask, float-reg mask, frame-slot mask, flags ok).
_State = Tuple[int, int, int, bool]


class _Linter:
    def __init__(self, code: CodeObject) -> None:
        self.code = code
        self.instrs = code.instrs
        self.diagnostics: List[Diagnostic] = []
        self.stub_pcs: Dict[int, int] = {
            pc: int(instr.imm)
            for pc, instr in enumerate(self.instrs)
            if instr.op == MOp.DEOPT
        }

    def report(self, severity: Severity, invariant: str, message: str,
               pc: Optional[int] = None) -> None:
        self.diagnostics.append(
            Diagnostic(severity, "mclint", invariant, message, pc=pc)
        )

    def error(self, invariant: str, message: str, pc: Optional[int] = None) -> None:
        self.report(Severity.ERROR, invariant, message, pc)

    def run(self) -> List[Diagnostic]:
        self._check_branch_targets()
        self._check_block_partition()
        self._check_trace_edges()
        self._check_deopt_wiring()
        self._check_frame_state_locations()
        self._check_dataflow()
        self._check_window_shape()
        self._check_typed_plans()
        return self.diagnostics

    # -- control ---------------------------------------------------------

    def _check_branch_targets(self) -> None:
        count = len(self.instrs)
        for pc, instr in enumerate(self.instrs):
            if instr.op not in (MOp.B, MOp.BCC):
                continue
            if not 0 <= instr.target < count:
                self.error(
                    "branch-target",
                    f"{instr.op.name} target {instr.target} outside "
                    f"[0, {count}) (unpatched fixup?)",
                    pc,
                )

    # -- fused-block partition -------------------------------------------

    def _check_block_partition(self) -> None:
        """Validate the blockjit partition the block executor relies on.

        The block-compiled executor charges each block's cycle cost in
        one add and its static statistics in one batch; both are exact
        only if (a) control can enter a block solely at its first pc and
        (b) any instruction that can leave the block — branch, call,
        ``RET``, ``DEOPT``, or a ``jsldrsmi`` commit point — is the
        block's last.  Violations here mean the fast tier would diverge
        from the step loop, so they are ERRORs.
        """
        instrs = self.instrs
        if not instrs:
            return
        count = len(instrs)
        spans = block_spans(instrs)
        starts = {start for start, _end in spans}
        previous_end = 0
        for start, end in spans:
            if start != previous_end or not start < end <= count:
                self.error(
                    "block-partition",
                    f"fused-block span [{start}, {end}) does not tile the "
                    f"code (previous span ended at {previous_end})",
                    start,
                )
            previous_end = end
        if previous_end != count:
            self.error(
                "block-partition",
                f"fused-block spans cover [0, {previous_end}) but the code "
                f"object has {count} instructions",
            )
        for pc, instr in enumerate(instrs):
            if instr.op in (MOp.B, MOp.BCC) and 0 <= instr.target < count:
                if instr.target not in starts:
                    self.error(
                        "block-partition",
                        f"{instr.op.name} target {instr.target} is not a "
                        "fused-block leader; the block executor could enter "
                        "a block mid-body",
                        pc,
                    )
            if instr.op in FUSED_BLOCK_END_OPS and pc + 1 < count:
                if pc + 1 not in starts:
                    self.error(
                        "block-partition",
                        f"{instr.op.name} at pc {pc} is followed by a "
                        "non-leader: a fused block would cross this "
                        "branch/call/deopt commit point",
                        pc,
                    )

    def _check_trace_edges(self) -> None:
        """Cross-validate the fused-block edge metadata the trace tier uses.

        :func:`~repro.isa.semantics.fused_block_edges` summarises each
        block by its *last* instruction; the trace compiler
        (:mod:`repro.machine.tracejit`) refuses to stitch a chain whose
        hop is not in that set.  Here the same edge set is re-derived
        independently from the machine CFG (:func:`successors_of` on the
        block's last pc, successors restricted to block leaders) and any
        asymmetric difference is an ERROR: a missing edge would make the
        trace tier reject a legal chain, a phantom edge would let it
        stitch blocks control flow can never connect.
        """
        instrs = self.instrs
        if not instrs:
            return
        count = len(instrs)
        leaders = sorted(fused_block_leaders(tuple(instrs)))
        block_of = {start: i for i, start in enumerate(leaders)}
        declared = fused_block_edges(tuple(instrs))
        derived = set()
        for bid, start in enumerate(leaders):
            end = leaders[bid + 1] if bid + 1 < len(leaders) else count
            for succ in successors_of(end - 1, instrs[end - 1], count):
                if succ in block_of:
                    derived.add((bid, block_of[succ]))
        for src, dst in sorted(declared - derived):
            self.error(
                "trace-edges",
                f"fused_block_edges declares edge {src}->{dst} the machine "
                "CFG does not have; the trace tier could stitch blocks "
                "control flow never connects",
                leaders[src],
            )
        for src, dst in sorted(derived - declared):
            self.error(
                "trace-edges",
                f"machine-CFG edge {src}->{dst} is missing from "
                "fused_block_edges; the trace tier would reject a legal "
                "chain through it",
                leaders[src],
            )

    # -- deopt wiring ----------------------------------------------------

    def _check_deopt_wiring(self) -> None:
        points = self.code.deopt_points
        sites = self.code.check_sites
        for pc, check_id in self.stub_pcs.items():
            if check_id not in points:
                self.error(
                    "deopt-registered",
                    f"DEOPT stub names check id {check_id}, which has no "
                    "registered DeoptPoint",
                    pc,
                )
            if check_id not in sites:
                self.error(
                    "deopt-registered",
                    f"DEOPT stub names check id {check_id}, which has no "
                    "registered CheckSite",
                    pc,
                )
        for pc, instr in enumerate(self.instrs):
            if instr.op == MOp.BCC and instr.is_deopt_branch:
                stub_id = self.stub_pcs.get(instr.target)
                if stub_id is None:
                    self.error(
                        "deopt-target",
                        f"deopt branch (check id {instr.check_id}) targets "
                        f"pc {instr.target}, which is not a DEOPT stub",
                        pc,
                    )
                elif instr.check_id >= 0 and stub_id != instr.check_id:
                    self.error(
                        "deopt-target",
                        f"deopt branch for check id {instr.check_id} lands "
                        f"on the stub of check id {stub_id}",
                        pc,
                    )
            elif instr.op == MOp.BCC and instr.target in self.stub_pcs:
                self.report(
                    Severity.WARNING,
                    "deopt-target",
                    "non-deopt conditional branch targets a DEOPT stub; the "
                    "window heuristic will misattribute its samples",
                    pc,
                )
            if instr.op == MOp.JSLDRSMI and instr.check_id >= 0:
                if self.code.smi_load_checks.get(pc) != instr.check_id:
                    self.error(
                        "deopt-registered",
                        f"JSLDRSMI with check id {instr.check_id} missing "
                        "from smi_load_checks (commit-time bailout would "
                        "not resolve)",
                        pc,
                    )
        for check_id, site in sites.items():
            if site.branch_pc >= 0:
                branch = (
                    self.instrs[site.branch_pc]
                    if site.branch_pc < len(self.instrs) else None
                )
                if branch is None or branch.op != MOp.BCC or not branch.is_deopt_branch:
                    self.error(
                        "deopt-registered",
                        f"check site {check_id} records branch_pc "
                        f"{site.branch_pc}, which is not a deopt branch",
                        site.branch_pc,
                    )
            if site.stub_pc >= 0 and self.stub_pcs.get(site.stub_pc) != check_id:
                self.error(
                    "deopt-registered",
                    f"check site {check_id} records stub_pc {site.stub_pc}, "
                    "which is not its DEOPT stub",
                    site.stub_pc,
                )

    # -- frame-state locations -------------------------------------------

    def _location_ok(self, location: Location, check_id: int, what: str) -> None:
        if location.kind not in ("reg", "freg", "slot"):
            return  # constants have no machine home to clobber
        if not isinstance(location.value, int):
            self.error(
                "frame-state-location",
                f"deopt point {check_id}: {what} has non-integer "
                f"{location.kind} index {location.value!r}",
            )
            return
        int_lo, int_hi = self.code.allocatable_int_regs
        float_lo, float_hi = self.code.allocatable_float_regs
        if location.kind == "reg" and not int_lo <= location.value < int_hi:
            self.error(
                "frame-state-location",
                f"deopt point {check_id}: {what} lives in r{location.value}, "
                f"outside the allocatable pool [{int_lo}, {int_hi}) — a "
                "scratch register the check condition may clobber",
            )
        elif location.kind == "freg" and not float_lo <= location.value < float_hi:
            self.error(
                "frame-state-location",
                f"deopt point {check_id}: {what} lives in f{location.value}, "
                f"outside the allocatable pool [{float_lo}, {float_hi})",
            )
        elif location.kind == "slot" and not 0 <= location.value < self.code.allocatable_slots:
            self.error(
                "frame-state-location",
                f"deopt point {check_id}: {what} lives in frame slot "
                f"{location.value}, outside [0, {self.code.allocatable_slots})",
            )

    def _check_frame_state_locations(self) -> None:
        for check_id, point in self.code.deopt_points.items():
            for value in point.values:
                self._location_ok(value.location, check_id, f"r{value.interp_reg}")
            if point.this_location is not None:
                self._location_ok(point.this_location[0], check_id, "this")

    # -- defined-before-use dataflow -------------------------------------

    def _deopt_effect(self, instr: MachineInstr) -> InstrEffect:
        """The frame-state reads of a DEOPT stub (or inline soft deopt)."""
        effect = InstrEffect()
        point = self.code.deopt_points.get(int(instr.imm))
        if point is None:
            return effect  # already reported by _check_deopt_wiring
        locations: List[Location] = [v.location for v in point.values]
        if point.this_location is not None:
            locations.append(point.this_location[0])
        for location in locations:
            if not isinstance(location.value, int):
                continue  # malformed; reported by _check_frame_state_locations
            if location.kind == "reg":
                effect.int_uses.add(location.value)
            elif location.kind == "freg":
                effect.float_uses.add(location.value)
            elif location.kind == "slot":
                effect.slot_uses.add(location.value)
        return effect

    def _effect(self, instr: MachineInstr) -> InstrEffect:
        if instr.op == MOp.DEOPT:
            return self._deopt_effect(instr)
        return effect_of(instr)

    def _check_dataflow(self) -> None:
        instrs = self.instrs
        if not instrs:
            return
        count = len(instrs)
        gpr = self.code.target.gpr_count
        fpr = self.code.target.fpr_count
        slots = self.code.stack_slots
        leaders = sorted(leaders_of(tuple(instrs)))
        block_of: Dict[int, int] = {}  # leader pc -> index in `leaders`
        for index, leader in enumerate(leaders):
            block_of[leader] = index
        block_end = {
            leader: (leaders[index + 1] if index + 1 < len(leaders) else count)
            for index, leader in enumerate(leaders)
        }

        # Entry state: JS arguments + `this` arrive in r0..r7; nothing else.
        entry: _State = ((1 << 8) - 1, 0, 0, False)
        in_state: Dict[int, _State] = {0: entry}

        def transfer(state: _State, pc: int, report: bool) -> _State:
            int_mask, float_mask, slot_mask, flags = state
            instr = instrs[pc]
            effect = self._effect(instr)
            if report:
                self._report_uses(pc, instr, effect, state, gpr, fpr, slots)
            for reg in effect.int_defs:
                if 0 <= reg < gpr:
                    int_mask |= 1 << reg
            for reg in effect.float_defs:
                if 0 <= reg < fpr:
                    float_mask |= 1 << reg
            for slot in effect.slot_defs:
                if 0 <= slot < slots:
                    slot_mask |= 1 << slot
            if effect.kills_flags:
                flags = False
            if effect.sets_flags:
                flags = True
            return (int_mask, float_mask, slot_mask, flags)

        # Fixpoint (silent), then one reporting pass with the final states.
        worklist = [0]
        while worklist:
            leader = worklist.pop()
            state = in_state[leader]
            last_pc = leader
            for pc in range(leader, block_end[leader]):
                last_pc = pc
                state = transfer(state, pc, report=False)
                if instrs[pc].op in BLOCK_END_OPS:
                    break
            for successor in successors_of(last_pc, instrs[last_pc], count):
                if successor not in block_of:
                    continue  # bad target, reported elsewhere
                merged = (
                    state if successor not in in_state
                    else _meet(in_state[successor], state)
                )
                if in_state.get(successor) != merged:
                    in_state[successor] = merged
                    worklist.append(successor)

        for leader in leaders:
            if leader not in in_state:
                continue  # unreachable code: nothing to lint
            state = in_state[leader]
            for pc in range(leader, block_end[leader]):
                state = transfer(state, pc, report=True)
                if instrs[pc].op in BLOCK_END_OPS:
                    break

    def _report_uses(self, pc: int, instr: MachineInstr, effect: InstrEffect,
                     state: _State, gpr: int, fpr: int, slots: int) -> None:
        int_mask, float_mask, slot_mask, flags = state
        for reg in sorted(effect.int_uses):
            if not 0 <= reg < gpr:
                self.error(
                    "register-range",
                    f"{instr.op.name} reads integer register r{reg}, "
                    f"outside [0, {gpr})",
                    pc,
                )
            elif not int_mask >> reg & 1:
                self.error(
                    "read-before-def",
                    f"{instr.op.name} reads r{reg} before any definition",
                    pc,
                )
        for reg in sorted(effect.float_uses):
            if not 0 <= reg < fpr:
                self.error(
                    "register-range",
                    f"{instr.op.name} reads float register f{reg}, "
                    f"outside [0, {fpr})",
                    pc,
                )
            elif not float_mask >> reg & 1:
                self.error(
                    "read-before-def",
                    f"{instr.op.name} reads f{reg} before any definition",
                    pc,
                )
        for slot in sorted(effect.slot_uses):
            if not 0 <= slot < slots:
                self.error(
                    "register-range",
                    f"{instr.op.name} reads frame slot {slot}, outside "
                    f"[0, {slots})",
                    pc,
                )
            elif not slot_mask >> slot & 1:
                self.error(
                    "read-before-def",
                    f"{instr.op.name} reads frame slot {slot} before any "
                    "store",
                    pc,
                )
        if effect.reads_flags and not flags:
            self.error(
                "flags-before-use",
                f"{instr.op.name} consumes condition flags with no live "
                "flag-setting instruction on some path",
                pc,
            )

    # -- attribution-window shape ----------------------------------------

    def _check_window_shape(self) -> None:
        window = self.code.target.check_window
        for pc, instr in enumerate(self.instrs):
            if not (instr.op == MOp.BCC and instr.is_deopt_branch):
                continue
            if instr.target not in self.stub_pcs:
                continue  # broken wiring, reported elsewhere
            run = 0
            back = pc - 1
            while back >= 0:
                previous = self.instrs[back]
                if previous.op in BLOCK_END_OPS or previous.check_id != instr.check_id:
                    break
                run += 1
                back -= 1
            if run < window:
                self.report(
                    Severity.INFO,
                    "window-shape",
                    f"check id {instr.check_id}: {run} condition "
                    f"instruction(s) precede the deopt branch but the "
                    f"{self.code.target.name} window is {window} — the "
                    f"heuristic overcounts {window - run} unrelated "
                    "instruction(s)",
                    pc,
                )
            elif run > window:
                self.report(
                    Severity.INFO,
                    "window-shape",
                    f"check id {instr.check_id}: {run} condition "
                    f"instruction(s) precede the deopt branch, exceeding "
                    f"the {self.code.target.name} window of {window} — the "
                    f"heuristic undercounts {run - window} instruction(s)",
                    pc,
                )


    # -- typed block variants (repro.analysis.typeflow plans) ------------

    def _check_typed_plans(self) -> None:
        """Validate the typed-variant elision plans against the code.

        The block compiler consumes these plans verbatim, so a malformed
        plan is a typed block that silently diverges from the step loop:
        every plan must sit on its block's single check site, carry
        exactly one hoisted guard per assumed fact (none when the proof
        is unconditional), only rewrite condition instructions of that
        check, and never skip an instruction with a register/slot effect
        (the divergence sentinel compares full register files).
        """
        from .typeflow import HOISTABLE, analyze_typeflow, typed_plans

        try:
            plans = typed_plans(self.code)
        except Exception as failure:  # noqa: BLE001 - surface, don't crash
            self.error(
                "typed-entry-guard",
                f"typeflow plan construction failed: "
                f"{type(failure).__name__}: {failure}",
            )
            return
        if not plans:
            return
        spans = block_spans(self.instrs)
        result = analyze_typeflow(self.code)
        for bid, plan in sorted(plans.items()):
            if not 0 <= bid < len(spans) or (plan.start, plan.end) != spans[bid]:
                self.error(
                    "typed-entry-guard",
                    f"typed plan for block {bid} spans [{plan.start}, "
                    f"{plan.end}), which is not that block",
                    plan.site_pc,
                )
                continue
            start, end = spans[bid]
            if plan.site_pc != end - 1:
                self.error(
                    "typed-entry-guard",
                    f"typed plan for block {bid} elides pc {plan.site_pc}, "
                    f"but the block's only check site is its last "
                    f"instruction (pc {end - 1})",
                    plan.site_pc,
                )
            site = self.instrs[plan.site_pc]
            if plan.site == "branch":
                if site.op != MOp.BCC or not site.is_deopt_branch \
                        or site.check_id != plan.check_id:
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid} names a branch check "
                        f"{plan.check_id} but pc {plan.site_pc} is not its "
                        "deopt branch",
                        plan.site_pc,
                    )
                elif self.stub_pcs.get(site.target) != plan.check_id:
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid}: elided branch does "
                        "not target the registered DEOPT stub of check "
                        f"{plan.check_id} — the generic fallback would "
                        "bail to the wrong stub",
                        plan.site_pc,
                    )
            elif plan.site == "jsldrsmi":
                if site.op != MOp.JSLDRSMI or \
                        self.code.smi_load_checks.get(plan.site_pc) != plan.check_id:
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid} names a jsldrsmi check "
                        f"{plan.check_id} but pc {plan.site_pc} is not its "
                        "registered commit point",
                        plan.site_pc,
                    )
            else:
                self.error(
                    "typed-entry-guard",
                    f"typed plan for block {bid} has unknown site kind "
                    f"{plan.site!r}",
                    plan.site_pc,
                )
            # Exactly one hoisted guard per assumed fact: the plan assumes
            # plan.fact, so guards is () only for a proven-redundant site.
            if len(set(plan.guards)) != len(plan.guards) or \
                    plan.guards not in ((), (plan.fact,)):
                self.error(
                    "typed-entry-guard",
                    f"typed plan for block {bid} guards {plan.guards!r} do "
                    f"not match its assumed fact {plan.fact!r}",
                    plan.site_pc,
                )
            elif result is not None:
                verdict = result.classifications.get(plan.check_id)
                hoisted = verdict is not None and verdict.klass == HOISTABLE
                if hoisted != bool(plan.guards):
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid} carries "
                        f"{len(plan.guards)} guard(s) but check "
                        f"{plan.check_id} is classified "
                        f"{verdict.klass if verdict else 'unknown'}",
                        plan.site_pc,
                    )
            for pc, action in plan.actions:
                if not start <= pc < plan.site_pc:
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid} rewrites pc {pc}, "
                        f"outside its condition run [{start}, "
                        f"{plan.site_pc})",
                        pc,
                    )
                    continue
                instr = self.instrs[pc]
                effect = effect_of(instr)
                if action[0] == "skip" and (
                    effect.int_defs or effect.float_defs or effect.slot_defs
                ):
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid} skips pc {pc} "
                        f"({instr.op.name}), which defines machine state — "
                        "the typed variant would diverge from the step "
                        "loop's register file",
                        pc,
                    )
                elif action[0] == "const" and (
                    instr.op != MOp.LDR or instr.dst != action[1]
                ):
                    self.error(
                        "typed-entry-guard",
                        f"typed plan for block {bid} constant-folds pc {pc} "
                        f"({instr.op.name} -> r{instr.dst}), but the action "
                        f"writes r{action[1]}",
                        pc,
                    )


def _meet(a: _State, b: _State) -> _State:
    return (a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] and b[3])


# -- lazy block versioning ---------------------------------------------------


def check_version_chains(table) -> List[Diagnostic]:
    """``version-entry-guard``: a chained edge may only skip guards whose
    facts the predecessor's state establishes.

    Re-derives, independently of :mod:`repro.machine.lbbv`'s own chain
    walk, the outgoing edge state of every chain source — a compiled
    block version (entry = the block's static entry facts plus the
    version's key) or a rechained base block (entry = the static entry
    facts alone) — and checks that the state *proves every fact of the
    target version's key*.  A chained edge enters its target with zero
    entry guards, so any unproven key fact is a hole the dispatcher
    would otherwise have tested: severity ERROR.  Wiring (target
    exists, targets the recorded successor) is checked first so a
    corrupt table does not mask a guard hole.
    """
    diagnostics: List[Diagnostic] = []

    def error(message: str) -> None:
        diagnostics.append(
            Diagnostic(Severity.ERROR, "mclint", "version-entry-guard",
                       message)
        )

    ctx = table.ctx
    if ctx is None:
        return diagnostics

    def edge_states(bid, entry):
        states = {}
        for succ, state in ctx.out_states(bid, frozenset(entry)):
            held = states.get(succ)
            states[succ] = state if held is None else (held & state)
        return states

    def check_edges(source: str, bid, entry, chained):
        states = edge_states(bid, entry)
        for succ, index in chained:
            target = table.by_index.get(index)
            if target is None:
                error(f"{source} chains edge ->{succ} to driver index "
                      f"{index}, which is not a registered version")
                continue
            if target.bid != succ:
                error(f"{source} chains edge ->{succ} to version "
                      f"{index}, which versions block {target.bid}")
                continue
            state = states.get(succ)
            if state is None:
                error(f"{source} chains edge ->{succ}, but the typeflow "
                      "analysis derives no such edge")
                continue
            unproven = [f for f in target.key
                        if not ctx.establishes(state, (f,))]
            if unproven:
                error(f"{source} chains edge ->{succ} into version "
                      f"{index} guard-free, but its edge state does not "
                      f"establish key fact(s) {sorted(map(repr, unproven))}")

    static_entry = ctx.static_entry
    for bid, versions in sorted(table.versions.items()):
        entry_base = static_entry.get(bid, frozenset())
        for version in versions:
            if version.compiled is None and not version.chained_out:
                continue
            check_edges(
                f"version {version.index} of block {bid}",
                bid, entry_base | version.key, version.chained_out,
            )
    for bid, targets in sorted(table.rechained.items()):
        check_edges(
            f"rechained block {bid}",
            bid, static_entry.get(bid, frozenset()),
            sorted(targets.items()),
        )
    return diagnostics


def assert_version_chains_clean(table) -> List[Diagnostic]:
    """Check the version-entry-guard invariant; raise on any error."""
    diagnostics = check_version_chains(table)
    bad = errors(diagnostics)
    if bad:
        name = table.code.shared.info.name
        raise VerificationError(
            f"version chain lint failed for {name!r} "
            f"[{table.code.target.name}]", bad
        )
    return diagnostics
