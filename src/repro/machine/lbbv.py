"""Lazy basic block versioning: runtime type-state-specialized blocks.

The typed tier (PR 6, DESIGN.md §11) specializes each fused block once,
on facts provable on *every* path to it, behind hoisted entry guards.
This module implements lazy basic block versioning (Chevalier-Boisvert &
Feeley, arXiv 1411.0352; typed shapes in 1507.02437) on top of the same
machinery: a block may hold up to :data:`MAX_VERSIONS` *versions*, each
keyed by an incoming type-state drawn from the typeflow fact vocabulary
(parity / constant / map / bounds / packed-smi —
:data:`repro.analysis.typeflow.GUARDABLE_FACTS`), with version bodies
generated lazily on the first execution that actually reaches the state.

Three mechanisms, in increasing order of payoff:

* **Dispatch.** A block that would benefit from a version gets its
  driver slot wrapped in a generated *dispatcher*: a nested sequence of
  the shared guard tests (:meth:`_BlockCompiler._guard_test` — the very
  same predicates the typed tier hoists) that tail-calls the first
  version whose key facts all hold, falling back to the original fused
  closure (typed or generic) otherwise.

* **Lazy bodies.** A version is *registered* with a placeholder closure
  appended to the driver; the placeholder compiles the real body on the
  version's first execution, patches its driver slot, and tail-calls the
  compiled body with the entry state untouched — zero simulated cycles,
  exactly like the process-wide source cache in blockjit.

* **Guard-free chaining.** A version body's exit indices are rewritten
  at compile time: an edge whose propagated fact state establishes a
  successor version's entire key jumps to that *version* directly —
  the successor runs **zero entry guards** because the predecessor's
  state already proved them.  Every chained edge is recorded in the
  version table and re-derived by mclint's ``version-entry-guard``
  invariant (:func:`repro.analysis.mclint.check_version_chains`).

Fidelity contract — *a version may side-exit, never diverge*: a version
body is the block's typed-variant body (identical cycle charging,
predictor updates and counter deltas) whose driver entry shares the base
block's ``total_cost`` and generic **stepped twin**, so sample-window
routing, forced-trip consumption and demotion behave bit-identically to
the base slot; only python-level ``tstat``/``vstat`` diagnostics and the
(interchangeable) block indices differ.  The divergence sentinel
shadow-executes versions against the base stepped twin
(:meth:`repro.supervise.sentinel.DivergenceSentinel.audit_version`) and
a mismatch demotes the whole version table with its block table.

Past :data:`MAX_VERSIONS` states per block the table **widens**: the
request returns the generic/base block id and counts the event, which
bounds the version population at ``MAX_VERSIONS × n_blocks`` and makes
specialization provably terminating (tests assert the cap).

``REPRO_LBBV`` turns the tier off; it defaults on wherever typed blocks
are on (versioning is meaningless without the typed vocabulary, and the
executor gates it accordingly).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from .artifacts import compile_source
from .blockjit import _BlockCompiler

if TYPE_CHECKING:
    from ..jit.codegen import CodeObject
    from .blockjit import BlockTable
    from .executor import Executor

#: versions per block before the table widens to the generic/base block.
MAX_VERSIONS = 4


def default_lbbv() -> bool:
    """Process-wide default for lazy block versioning (REPRO_LBBV)."""
    return os.environ.get("REPRO_LBBV", "1").lower() not in (
        "0", "false", "off", "no",
    )


def _poison(regs, fregs, frame, special, heap, cycles):
    """Driver slot ``n_blocks`` once version entries exist past it.

    Before versioning, a corrupt/off-end block id raised ``IndexError``
    straight from the driver indexing; appending version entries would
    silently swallow that, so the sentinel slot re-raises the exact
    error the bare list lookup produced.
    """
    raise IndexError("list index out of range")


class BlockVersion:
    """One registered version of one fused block."""

    __slots__ = ("bid", "key", "index", "slot", "plan", "compiled",
                 "negated", "chained_out")

    def __init__(self, bid: int, key: FrozenSet) -> None:
        self.bid = bid
        #: guardable facts this version assumes *beyond* the block's
        #: static entry state (canonical identity; tested by the
        #: dispatcher, promised by chained edges).
        self.key = key
        #: driver index of this version (>= n_blocks + 1)
        self.index = -1
        #: index into VersionTable.hits
        self.slot = -1
        #: guard-free TypedBlockPlan, or None for a pass-through version
        #: kept only for chain continuity / negated-state re-dispatch
        self.plan = None
        self.compiled = None
        #: True when seeded from a tripped guard's negated state
        self.negated = False
        #: recorded guard-free chained edges: (successor base bid,
        #: target driver index).  mclint re-derives the skipped facts —
        #: the target version's full key — and checks this version's
        #: propagated edge state establishes every one of them.
        self.chained_out: List[Tuple[int, int]] = []


class _VersionCompiler(_BlockCompiler):
    """Block compiler variant that redirects exit indices into versions.

    Reuses every emission path of :class:`_BlockCompiler` — bodies are
    byte-equal to the typed variants the static tier would generate —
    and only overrides target resolution: exits whose edge state proved
    a successor version's key jump to the version's driver index.
    """

    def __init__(self, code: "CodeObject", executor: "Executor",
                 table: "BlockTable") -> None:
        super().__init__(code, executor)
        self.block_of = table.block_of
        self.n_blocks = len(table.spans)
        self.flags_live = False  # versions are never built under flags ABI
        #: base bid -> driver index, installed per compiled version
        self.redirect: Dict[int, int] = {}

    def _target_bid(self, pc: int) -> int:
        bid = super()._target_bid(pc)
        return self.redirect.get(bid, bid)


class VersionTable:
    """All runtime block versions of one code object, bound to one
    :class:`~repro.machine.blockjit.BlockTable` (and therefore one
    executor).  Rebuilt whenever the block table is."""

    def __init__(self, code: "CodeObject", table: "BlockTable",
                 executor: "Executor") -> None:
        self.code = code
        self.table = table
        self.executor = executor
        self.n_base = len(table.spans)
        #: base bid -> registered versions, in creation order
        self.versions: Dict[int, List[BlockVersion]] = {}
        #: driver index -> version
        self.by_index: Dict[int, BlockVersion] = {}
        #: driver index -> base bid (identity below n_base; -1 = poison)
        self.base_of: List[int] = list(range(self.n_base))
        #: per-version execution counts (index = BlockVersion.slot)
        self.hits: List[int] = []
        #: base bids whose driver slot is wrapped by a dispatcher
        self.dispatched: Dict[int, object] = {}
        self.created = 0
        self.compiled = 0
        self.widenings = 0
        self.widened: Dict[int, int] = {}
        self.negated_seeds = 0
        self.disabled = False
        #: base bids whose exits were statically re-pointed into
        #: successor versions (bid -> {successor base bid: driver index})
        self.rechained: Dict[int, Dict[int, int]] = {}
        self._rechain_fns: Dict[int, object] = {}
        self._rechain_placeholders: Dict[int, object] = {}
        self._key_memo: Dict[FrozenSet, FrozenSet] = {}
        self._seeding = False
        self._compiler: Optional[_VersionCompiler] = None
        self._ctx = None
        self.active = (
            getattr(executor, "lbbv", False)
            and getattr(executor, "blockjit", False)
            and getattr(executor, "typed_blocks", False)
            and not table.flags_live
            and not table.demoted
            and getattr(code, "_tier_rung", 0) < 2
            and not getattr(code, "_supervise_demoted", False)
        )
        if self.active:
            from ..analysis.typeflow import version_analysis

            self.ctx = version_analysis(code)
            if self.ctx.flags_live or not self.ctx.static_entry:
                self.active = False
            else:
                self._static_keys = {
                    bid: self._key(entry)
                    for bid, entry in self.ctx.static_entry.items()
                }
                self._seed()
        else:
            self.ctx = None

    # -- helpers ---------------------------------------------------------

    def _key(self, state) -> FrozenSet:
        from ..analysis.typeflow import version_key

        snapshot = frozenset(state)
        cached = self._key_memo.get(snapshot)
        if cached is None:
            cached = self._key_memo[snapshot] = version_key(snapshot)
        return cached

    def base_bid(self, bid: object) -> object:
        """Map a driver index a version body returned onto its base
        block id (identity for base indices and non-indices); used by
        the sentinel so version exits compare equal to the stepped
        twin's base exits."""
        if type(bid) is int and self.n_base <= bid < len(self.base_of):
            base = self.base_of[bid]
            return base if base >= 0 else self.n_base
        return bid

    def disable(self) -> None:
        """Stop creating, compiling into, or dispatching versions.

        Existing driver entries stay (the block table's own ``demote``
        turns them stepped); placeholders hit after disable still
        compile-and-run for the in-flight dispatch but no longer patch
        the driver."""
        self.disabled = True

    def _entry_state(self, bid: int, key) -> FrozenSet:
        return frozenset(key | self.ctx.static_entry.get(bid, frozenset()))

    # -- registration ----------------------------------------------------

    def _seed(self) -> None:
        """Pre-register versions for the statically visible type-states.

        Two seed sources, both lazy (only keys, plans and dispatchers
        exist up front; bodies compile on first execution):

        * **Hoisted-guard states.** Every block whose static typed plan
          carries entry guards gets a version keyed by those guard
          facts.  The dispatcher subsumes the hoisted guard test (same
          predicate, same count), the version body is guard-free, and —
          the actual payoff — chained edges from versions whose state
          re-establishes the facts (loop back edges, post-check
          fallthroughs) enter with **zero** guards, where the static
          tier re-evaluates its hoisted guard on every execution.

        * **Edge states.** For every block whose site the static tier
          could not elide guard-free, each incoming edge whose
          individual state *does* prove the site (the precision the
          per-block meet lost) gets a version keyed by that state's
          guardable facts.

        * **Merge-lost edge states.** The per-block meet is exactly
          where the static tier loses precision: an edge whose source
          state proves facts the destination's merged entry cannot.
          Every such edge whose facts transitively reach a site the
          richer state elides (``_chain_gain``) seeds a version of the
          destination keyed by the lost facts — and the *source* block
          is **rechained**: its exit indices are re-pointed at the
          version, statically, so the version is entered with zero
          guards on every execution of that edge.

        Runtime re-seeding (negated states from tripped guards) adds
        more through the same capped request path.
        """
        from ..analysis.typeflow import guardable_fact

        rechain: Dict[int, Dict[int, int]] = {}
        self._seeding = True
        try:
            for bid, entry in sorted(self.ctx.static_entry.items()):
                edge_states: Dict[int, FrozenSet] = {}
                for succ, state in self.ctx.out_states(bid, entry):
                    if 0 <= succ < self.n_base:
                        key = self._key(state)
                        held = edge_states.get(succ)
                        edge_states[succ] = (
                            key if held is None else held & key
                        )
                targets: Dict[int, int] = {}
                for succ in sorted(edge_states):
                    lost = edge_states[succ] - self._static_keys.get(
                        succ, frozenset()
                    )
                    if not lost or not self._chain_gain(succ, lost):
                        continue
                    index = self.request(succ, lost)
                    if index != succ:
                        targets[succ] = index
                if targets:
                    rechain[bid] = targets
            for bid, static_plan in sorted(self.table.typed_plans.items()):
                if not static_plan.guards:
                    continue
                key = frozenset(
                    f for f in static_plan.guards if guardable_fact(f)
                )
                if key:
                    self.request(bid, key)
            incoming: Dict[int, List[FrozenSet]] = {}
            for bid, entry in self.ctx.static_entry.items():
                for succ, state in self.ctx.out_states(bid, entry):
                    if 0 <= succ < self.n_base:
                        incoming.setdefault(succ, []).append(
                            self._key(state)
                        )
            for bid in sorted(incoming):
                if self.ctx.sites.get(bid) is None:
                    continue
                static_plan = self.table.typed_plans.get(bid)
                if static_plan is not None and not static_plan.guards:
                    continue  # base fused already elides with zero guards
                for key in incoming[bid]:
                    if self.ctx.plan_for(bid, self._entry_state(bid, key)):
                        self.request(bid, key)
        finally:
            self._seeding = False
        for bid, targets in rechain.items():
            self._install_rechain(bid, targets)
        for bid in sorted(self.versions):
            self._regen_dispatcher(bid)

    def _chain_gain(self, bid: int, extra: FrozenSet) -> bool:
        """Does entering ``bid`` with ``extra`` facts beyond its static
        entry eventually pay?  True when the richer state — propagated
        forward until it decays to the static meet — reaches any block
        where it buys a guard-free plan the static tier lacks (no plan
        at all, or a plan behind entry guards).  Keeps seeding and the
        compile-time chain walk from minting pass-through versions that
        can never elide anything."""
        # Shared by every table over the same content: an active table's
        # typed_plans are exactly typed_plans(code), like the context.
        memo_key = (bid, extra)
        cached = self.ctx.gain_memo.get(memo_key)
        if cached is not None:
            return cached
        seen = set()
        frontier = [(bid, self._entry_state(bid, extra))]
        gain = False
        while frontier:
            b, state = frontier.pop()
            if b in seen:
                continue
            seen.add(b)
            gained = self._key(state) - self._static_keys.get(
                b, frozenset()
            )
            if not gained:
                continue  # decayed to the static meet: nothing new
            static_plan = self.table.typed_plans.get(b)
            if (static_plan is None or static_plan.guards) and \
                    self.ctx.plan_for(b, state):
                gain = True
                break
            for succ, out in self.ctx.out_states(b, frozenset(state)):
                if 0 <= succ < self.n_base:
                    frontier.append((succ, out))
        self.ctx.gain_memo[memo_key] = gain
        return gain

    def request(self, bid: int, key) -> int:
        """Resolve (registering if needed) the best version of ``bid``
        for incoming state ``key``; returns a driver index, or ``bid``
        itself when the base block is already optimal or the table
        widened.  Never compiles — bodies are lazy."""
        if not self.active or self.disabled or self.table.demoted:
            return bid
        if not (0 <= bid < self.n_base):
            return bid
        static = self._static_keys.get(bid)
        if static is None:  # unreachable for the must-analysis: no seed
            return bid      # state to specialize against, stay generic
        extra = frozenset(f for f in key if f not in static)
        if not extra:
            return bid
        existing = self.versions.setdefault(bid, [])
        for version in existing:
            if version.key == extra:
                return version.index
        if len(existing) < MAX_VERSIONS:
            return self._create(bid, extra).index
        # Widen: reuse the most specific registered subset of the state,
        # else fall back to the base block.  Creation is capped, so the
        # version population is finite and specialization terminates.
        best = None
        for version in existing:
            if version.key <= extra and (
                best is None
                or len(version.key) > len(best.key)
                or (len(version.key) == len(best.key)
                    and sorted(map(repr, version.key))
                    < sorted(map(repr, best.key)))
            ):
                best = version
        if best is not None:
            return best.index
        self.widenings += 1
        self.widened[bid] = self.widened.get(bid, 0) + 1
        return bid

    def observe_negated(self, check_id: int) -> Optional[int]:
        """Runtime re-seed from a tripped guard: register (and dispatch
        into) a version keyed by the *negated* fact of the failing
        check.

        Only parity facts are invertible inside the guard vocabulary
        (``par(r, p)`` failing proves ``par(r, 1-p)``); other tags
        negate to set-complements the lattice cannot represent.  The
        negated version is typically a pass-through (the site fact is
        now provably false, so nothing elides *here*) whose value is
        downstream: its dispatcher entry recognizes the post-deopt
        state immediately and its chained edges carry the negated fact
        to any successor it does prove."""
        if not self.active or self.disabled or self.table.demoted:
            return None
        for bid, site in self.ctx.sites.items():
            if site.check_id != check_id:
                continue
            fact = site.fact
            if fact is None or fact[0] != "par":
                return None
            negated = ("par", fact[1], 1 - fact[2])
            before = self.created
            index = self.request(bid, frozenset((negated,)))
            if index == bid:
                return None
            if self.created > before:
                version = self.by_index[index]
                version.negated = True
                self.negated_seeds += 1
                self._regen_dispatcher(bid)
            return index
        return None

    def _create(self, bid: int, extra: FrozenSet) -> BlockVersion:
        version = BlockVersion(bid, extra)
        version.plan = self.ctx.plan_for(bid, self._entry_state(bid, extra))
        version.slot = len(self.hits)
        self.hits.append(0)
        version.index = self._alloc_index(version)
        self.versions[bid].append(version)
        self.by_index[version.index] = version
        self.created += 1
        if version.plan is not None and not self._seeding:
            self._regen_dispatcher(bid)
        return version

    def _alloc_index(self, version: BlockVersion) -> int:
        driver = self.table.driver
        if len(driver) == self.n_base:
            # First version entry: interpose the poison slot so the
            # off-end/corrupt target sentinel (n_blocks) keeps raising
            # IndexError exactly as the bare driver lookup did.
            driver.append((float("inf"), _poison, _poison))
            self.table.auditable.append(False)
            self.base_of.append(-1)
        index = len(driver)
        block = self.table.blocks[version.bid]
        cost = float("inf") if self.table.demoted else block.total_cost
        driver.append((cost, self._make_placeholder(version), block.stepped))
        self.table.auditable.append(self.table.auditable[version.bid])
        self.base_of.append(version.bid)
        return index

    # -- rechained base blocks -------------------------------------------

    def _install_rechain(self, bid: int, targets: Dict[int, int]) -> None:
        """Re-point ``bid``'s exits into successor versions — lazily.

        The driver slot is swapped for a placeholder that compiles the
        rechained body (same span, same typed plan, same cost and
        stepped twin — only the returned successor indices differ) on
        the block's first post-seed execution.  The redirect is sound
        with **zero** guards because the promoted facts come from the
        must-analysis of this block's own static entry: they hold on
        every execution of the edge, unconditionally."""
        self.rechained[bid] = targets

        def _placeholder(regs, fregs, frame, special, heap, cycles,
                         _bid=bid):
            fn = self._compile_rechain(_bid)
            return fn(regs, fregs, frame, special, heap, cycles)

        self._rechain_placeholders[bid] = _placeholder
        if not self.table.demoted and not self.disabled:
            cost, _orig, stepped = self.table.driver[bid]
            self.table.driver[bid] = (cost, _placeholder, stepped)

    def _compile_rechain(self, bid: int):
        """Compile (idempotently) the rechained body of base block
        ``bid``: the block's own static assembly — typed variant plus
        generic guard-failure twin when its plan carries guards — with
        exit indices redirected into the seeded successor versions.
        The generic twin redirects too: the promoted facts derive from
        the static entry, not from the plan's guards, so they hold on
        the guard-failure path as well."""
        fn = self._rechain_fns.get(bid)
        if fn is not None:
            return fn
        start, end = self.table.spans[bid]
        block = self.table.blocks[bid]
        plan = self.table.typed_plans.get(bid)
        compiler = self._compiler_for()
        compiler.redirect = dict(self.rechained[bid])
        try:
            sources = []
            if plan is not None and plan.guards:
                sources.append(compiler._assemble(
                    bid, start, end, block, stepped=False, generic=True
                ))
            sources.append(compiler._assemble(
                bid, start, end, block, stepped=False, plan=plan
            ))
        finally:
            compiler.redirect = {}
        source = "\n".join(sources)
        compiled = compile_source(source, "<lbbv>", compile)
        exec(compiled, compiler.glb)  # noqa: S102 - generated from decoded
        fn = compiler.glb.pop(f"_blk_f{bid}")
        self._rechain_fns[bid] = fn
        if bid in self.dispatched:
            # A dispatcher wrapped this slot after the placeholder went
            # in; its fallback resolves _vf{bid} as a global, so the
            # swap below retargets already-generated dispatch code.
            self.dispatched[bid] = fn
            compiler.glb[f"_vf{bid}"] = fn
        if not self.table.demoted and not self.disabled:
            cost, current, stepped = self.table.driver[bid]
            if current is self._rechain_placeholders.get(bid):
                self.table.driver[bid] = (cost, fn, stepped)
        return fn

    # -- compilation -----------------------------------------------------

    def _compiler_for(self) -> _VersionCompiler:
        compiler = self._compiler
        if compiler is None:
            compiler = self._compiler = _VersionCompiler(
                self.code, self.executor, self.table
            )
            compiler.glb["vstat"] = self.hits
            compiler.glb["blocks"] = self.table.driver
        return compiler

    def _make_placeholder(self, version: BlockVersion):
        def _placeholder(regs, fregs, frame, special, heap, cycles):
            fn = self.compile_version(version)
            return fn(regs, fregs, frame, special, heap, cycles)

        return _placeholder

    def compile_version(self, version: BlockVersion):
        """Compile the version body (idempotent), patch its driver slot,
        and return the compiled closure.

        The body is the block's typed-variant assembly under the
        version's entry state — guard-free by construction
        (``plan_for`` only returns plans whose facts the state already
        implies) — with exit indices redirected into successor versions
        wherever the outgoing edge state establishes their keys.
        """
        if version.compiled is not None:
            return version.compiled
        bid = version.bid
        start, end = self.table.spans[bid]
        block = self.table.blocks[bid]
        entry = self._entry_state(bid, version.key)
        # Guard-free chained edges: meet the per-edge states of multi-
        # edge successors, then promote every edge whose state proves a
        # (possibly newly registered) successor version's full key.
        edge_states: Dict[int, FrozenSet] = {}
        for succ, state in self.ctx.out_states(bid, entry):
            key = self._key(state)
            held = edge_states.get(succ)
            edge_states[succ] = key if held is None else (held & key)
        redirect: Dict[int, int] = {}
        for succ in sorted(edge_states):
            lost = edge_states[succ] - self._static_keys.get(
                succ, frozenset()
            )
            if not lost or not self._chain_gain(succ, lost):
                continue
            target = self.request(succ, lost)
            if target != succ:
                redirect[succ] = target
                version.chained_out.append((succ, target))
        # Pass-through versions (no guard-free plan of their own) keep
        # the block's *static* plan — hoisted guards included — so a
        # chain link never elides less than the base slot it replaces.
        body_plan = version.plan
        if body_plan is None:
            body_plan = self.table.typed_plans.get(bid)
        compiler = self._compiler_for()
        compiler.redirect = redirect
        try:
            source = compiler._assemble(
                bid, start, end, block, stepped=False, plan=body_plan
            )
            twin = None
            if body_plan is not None and body_plan.guards:
                twin = compiler._assemble(
                    bid, start, end, block, stepped=False, generic=True
                )
        finally:
            compiler.redirect = {}
        head, _, body = source.partition("\n")
        head = head.replace(f"def _blk_f{bid}(", f"def _vb{version.index}(", 1)
        source = (
            head + f"\n    vstat[{version.slot}] += 1\n    tstat[6] += 1\n"
            + body
        )
        if twin is not None:
            # The guard-failure twin is version-private (each version
            # carries its own redirect map), so both definition and the
            # tail-call in the typed body get a per-version name.  The
            # redirect stays sound on the failure path: promoted facts
            # come from the version's entry state, not its guards.
            gname = f"_vbg{version.index}"
            source = source.replace(f"_blk_g{bid}(", f"{gname}(")
            source = (
                twin.replace(f"def _blk_g{bid}(", f"def {gname}(", 1)
                .replace(f"_blk_g{bid}(", f"{gname}(")
                + "\n" + source
            )
        compiled = compile_source(source, "<lbbv>", compile)
        exec(compiled, compiler.glb)  # noqa: S102 - generated from decoded
        fn = compiler.glb.pop(f"_vb{version.index}")
        version.compiled = fn
        self.compiled += 1
        engine = getattr(self.executor, "engine", None)
        if engine is not None and getattr(
            getattr(engine, "config", None), "verify", False
        ):
            from ..analysis.mclint import assert_version_chains_clean

            assert_version_chains_clean(self)
        if not self.table.demoted and not self.disabled:
            self.table.driver[version.index] = (
                block.total_cost, fn, block.stepped,
            )
        return fn

    # -- dispatch --------------------------------------------------------

    def _regen_dispatcher(self, bid: int) -> None:
        """(Re)generate the entry dispatcher wrapping ``bid``'s driver
        slot: shared guard tests per candidate version, in creation
        order, tail-calling the first fully-proven version via the live
        driver (so lazy placeholders and patched bodies both resolve);
        all-fail falls through to the original fused closure."""
        if self.table.demoted or self.disabled:
            return
        # Dispatch tests are paid on *every* base entry, so a candidate
        # is only worth testing when its key costs no more than what a
        # hit saves: the static plan's own hoisted guards, or — when
        # the static tier elides nothing here — the two-check floor
        # (branch + condition) a guard-free plan removes.  Fatter keys
        # stay chain-only: reached guard-free through predecessor
        # versions, never probed at the base slot.  Cheapest key first,
        # creation order breaking ties.
        static_plan = self.table.typed_plans.get(bid)
        budget = (
            len(static_plan.guards)
            if static_plan is not None and static_plan.guards
            else 2
        )
        candidates = [
            v for v in self.versions.get(bid, ())
            if v.negated or (v.plan is not None and len(v.key) <= budget)
        ]
        candidates.sort(key=lambda v: len(v.key))
        if not candidates:
            return
        compiler = self._compiler_for()
        if bid not in self.dispatched:
            # Capture the original typed/generic fused closure before
            # the slot is patched; the dispatcher's fallback call and
            # the trace tier both want the unwrapped body.
            self.dispatched[bid] = self.table.driver[bid][1]
        compiler.glb[f"_vf{bid}"] = self.dispatched[bid]
        lines: List[str] = []
        for version in candidates:
            depth = 0
            for fact in sorted(version.key, key=repr):
                setup, cond = compiler._guard_test(fact)
                pad = "    " * depth
                lines.append(f"{pad}tstat[3] += 1")
                lines.extend(pad + s for s in setup)
                lines.append(f"{pad}if not ({cond}):")
                depth += 1
            pad = "    " * depth
            lines.append(f"{pad}tstat[5] += 1")
            lines.append(
                f"{pad}return blocks[{version.index}][1]"
                "(regs, fregs, frame, special, heap, cycles)"
            )
        lines.append(
            f"return _vf{bid}(regs, fregs, frame, special, heap, cycles)"
        )
        source = (
            f"def _vd{bid}(regs, fregs, frame, special, heap, cycles):\n"
            + "".join(f"    {line}\n" for line in lines)
        )
        compiled = compile_source(source, "<lbbv>", compile)
        exec(compiled, compiler.glb)  # noqa: S102 - generated guard tests
        dispatcher = compiler.glb.pop(f"_vd{bid}")
        cost, _fused, stepped = self.table.driver[bid]
        self.table.driver[bid] = (cost, dispatcher, stepped)

    # -- reporting -------------------------------------------------------

    def occupancy(self) -> Dict[int, int]:
        return {bid: len(vs) for bid, vs in self.versions.items() if vs}

    def state_report(self) -> List[Dict[str, object]]:
        """Structured per-version report for stats/blockcost surfaces."""
        from ..analysis.typeflow import render_fact

        rows: List[Dict[str, object]] = []
        for bid in sorted(self.versions):
            for version in self.versions[bid]:
                rows.append({
                    "block": bid,
                    "index": version.index,
                    "state": tuple(sorted(
                        render_fact(f) for f in version.key
                    )),
                    "hits": self.hits[version.slot],
                    "compiled": version.compiled is not None,
                    "elides_site": version.plan is not None,
                    "negated": version.negated,
                    "chained_out": [
                        (succ, target) for succ, target in version.chained_out
                    ],
                })
        return rows


def attach_versions(code: "CodeObject", table: "BlockTable",
                    executor: "Executor") -> VersionTable:
    """Bind (or rebuild) the code object's version table against the
    current block table; cached on ``code._versions`` and torn down with
    it on every degradation-ladder descent."""
    versions = getattr(code, "_versions", None)
    if versions is not None and versions.table is table:
        return versions
    versions = VersionTable(code, table, executor)
    code._versions = versions
    return versions
