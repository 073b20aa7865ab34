"""caratcc: the CARAT KOP compiler pipeline (paper §3.3, Figure 2).

Figure 2's flow — C source → clang front end → middle-end passes
(+ guard injection) → signed module object — maps here to::

    mini-C  →  minicc  →  [mem2reg, peephole, dce]      (normal -O pipeline)
                       →  [attestation, kop-guard]       (if protect=True)
                       →  [kop-guard-opt]                (ablation only)
                       →  sign                           (HMAC attestation)

"Any module in the Linux kernel can be compiled as a protected module by
swapping the compiler for the CARAT KOP compiler" (§3.2): the same entry
point builds the baseline by passing ``protect=False`` — same front end,
same optimization flags, no guards, exactly the paper's §4.1 methodology
("In both cases, the same compiler was used, with the same flags").
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .. import abi
from ..ir import Module, verify_module
from ..ir.instructions import Call, Load, Store
from ..kernel.module_loader import CompiledModule
from ..minicc import compile_source
from ..passes import (
    AttestationPass,
    DCEPass,
    GuardInjectionPass,
    GuardOptPass,
    Mem2RegPass,
    PassManager,
    PeepholePass,
)
from ..passes.absint import EMPTY_CONTRACTS, ModuleVerifier, VerificationReport
from ..passes.intrinsic_guard import IntrinsicGuardPass
from ..signing import (
    SigningKey,
    VerificationCertificate,
    canonical_bytes,
    sign_module,
)


@dataclass
class CompileOptions:
    """Knobs of the caratcc wrapper script."""

    module_name: str = "module"
    #: Apply the CARAT KOP guard-injection transform.
    protect: bool = True
    #: Guard optimization level: 0 = faithful paper mode (guard every
    #: access), 1 = dominated-guard elimination + loop-invariant hoisting
    #: (the CARAT CAKE-style optimizer the abl2 benchmark measures),
    #: 2 = adds range coalescing, 3 = adds load-time static verification
    #: (prove guards in-policy and mint an elision certificate).
    opt_level: int = 0
    #: Individual transform overrides; ``None`` follows ``opt_level``.
    eliminate_guards: Optional[bool] = None
    hoist_guards: Optional[bool] = None
    coalesce_guards: Optional[bool] = None
    #: Run the abstract-interpretation verifier (``None`` follows
    #: ``opt_level >= 3``).  Requires ``verify_table``; without a table
    #: the tier degrades to -O2 behaviour (no certificate minted).
    verify: Optional[bool] = None
    #: The policy table (RegionTable/IntervalRegionTable) to prove guard
    #: ranges against — normally the live table the kernel will enforce.
    verify_table: Optional[object] = None
    #: Trusted contract set (``repro.passes.absint.ContractSet``); must
    #: match the kernel's registered contracts or insmod will demote.
    contracts: Optional[object] = None
    #: Guard privileged intrinsics too (paper §5 extension).
    guard_intrinsics: bool = False
    #: Guard module->kernel calls too (paper §5 control-flow extension).
    guard_calls: bool = False
    #: Standard mid-end optimization (mem2reg/peephole/dce).  The paper
    #: compiles with the kernel's normal flags; disable only for tests
    #: that want the -O0 shape.
    optimize: bool = True
    #: Sign the result (required by kernels provisioned with a key).
    key: Optional[SigningKey] = None
    verify_each_pass: bool = True

    def resolved_opt_level(self) -> int:
        """The ``-O`` level, validated."""
        if self.opt_level not in (0, 1, 2, 3):
            raise ValueError(
                f"opt_level must be 0, 1, 2, or 3: {self.opt_level}"
            )
        return self.opt_level

    def verify_enabled(self) -> bool:
        """Static verification tier (``-O3``) after overrides."""
        if self.verify is not None:
            return self.verify
        return self.resolved_opt_level() >= 3

    def guard_opt_toggles(self) -> tuple[bool, bool, bool]:
        """``(eliminate, hoist, coalesce)`` after per-transform overrides."""
        level = self.resolved_opt_level()
        eliminate = (
            self.eliminate_guards if self.eliminate_guards is not None
            else level >= 1
        )
        hoist = (
            self.hoist_guards if self.hoist_guards is not None else level >= 1
        )
        coalesce = (
            self.coalesce_guards if self.coalesce_guards is not None
            else level >= 2
        )
        return eliminate, hoist, coalesce


@dataclass
class CompileStats:
    """What the transform did — feeds the abl3 engineering-effort bench."""

    source_lines: int = 0
    instructions_before_guards: int = 0
    instructions_after: int = 0
    loads: int = 0
    stores: int = 0
    guards: int = 0
    functions: int = 0
    opt_level: int = 0
    guards_removed: int = 0
    guards_hoisted: int = 0
    guards_coalesced: int = 0
    guards_proven: int = 0
    guards_dynamic: int = 0
    passes_run: list[str] = field(default_factory=list)

    @property
    def code_growth(self) -> float:
        """Instruction-count growth factor from guard injection."""
        if not self.instructions_before_guards:
            return 1.0
        return self.instructions_after / self.instructions_before_guards

    def copy(self) -> "CompileStats":
        return replace(self, passes_run=list(self.passes_run))


#: Bound on the compile cache: least recently used entries beyond it are
#: dropped.  Two drivers at four tiers fill 8 slots.
COMPILE_CACHE_ENTRIES = 64


@dataclass(frozen=True)
class _CachedCompile:
    """One post-pass compile.  ``ir`` is never handed out, only cloned."""

    ir: Module
    stats: CompileStats
    report: Optional[VerificationReport]
    #: sha256 of the IR's canonical bytes (verifying compiles only).
    ir_digest: Optional[str]


class _CompileCache:
    """Process-global, content-addressed memo of :func:`compile_module`.

    Keyed by :func:`_cache_key`: a digest of everything the post-pass IR
    and the static verdicts depend on.  A hit skips the front end, the
    passes and the analysis; signing and the certificate's policy epoch
    are per request, and insmod re-checks everything as before."""

    __slots__ = ("entries", "hits", "misses")

    def __init__(self):
        self.entries: OrderedDict[str, _CachedCompile] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[_CachedCompile]:
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: _CachedCompile) -> None:
        self.entries[key] = entry
        while len(self.entries) > COMPILE_CACHE_ENTRIES:
            self.entries.popitem(last=False)

    def stats(self) -> dict:
        return {
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0


#: The process-global compile cache.
COMPILE_CACHE = _CompileCache()


def _verifying(opts: CompileOptions) -> bool:
    return bool(opts.protect and opts.verify_enabled()
                and opts.verify_table is not None)


def _cache_key(source: Union[str, Module],
               opts: CompileOptions) -> Optional[str]:
    """The cache key, or ``None`` when the compile bypasses the cache (IR
    passed in, or a verify table that cannot digest its content).

    The signing key and ``verify_each_pass`` are left out: neither
    changes the IR or the verdicts.  The table enters by content, not
    by ``epoch``, so a region added and removed again hits."""
    if not isinstance(source, str):
        return None
    table_digest = ""
    if _verifying(opts):
        digest = getattr(opts.verify_table, "digest", None)
        if digest is None:
            return None
        table_digest = digest()
    fields = (
        opts.module_name, opts.protect, opts.resolved_opt_level(),
        opts.guard_opt_toggles(), opts.verify_enabled(),
        opts.guard_intrinsics, opts.guard_calls, opts.optimize,
        (opts.contracts or EMPTY_CONTRACTS).digest(), table_digest,
    )
    h = hashlib.sha256(source.encode())
    h.update(repr(fields).encode())
    return h.hexdigest()


def compile_module(
    source: Union[str, Module],
    options: Optional[CompileOptions] = None,
    **kwargs,
) -> CompiledModule:
    """Compile mini-C source (or transform existing IR) into a loadable,
    optionally protected, optionally signed module.

    Source compiles go through :data:`COMPILE_CACHE`; every call gets
    its own IR, stats, signature and certificate."""
    opts = options or CompileOptions(**kwargs)
    if options is not None and kwargs:
        raise TypeError("pass either options or keyword overrides, not both")

    key = _cache_key(source, opts)
    entry = COMPILE_CACHE.get(key) if key is not None else None
    if entry is not None:
        ir = entry.ir.clone()
        stats = entry.stats.copy()
        report, ir_digest = entry.report, entry.ir_digest
    else:
        ir, stats, report = _compile(source, opts)
        ir_digest = (hashlib.sha256(canonical_bytes(ir)).hexdigest()
                     if report is not None else None)

    signature = sign_module(ir, opts.key) if opts.key is not None else None
    certificate = None
    if report is not None:
        table = opts.verify_table
        certificate = VerificationCertificate(
            module_name=ir.name,
            ir_digest=ir_digest,
            policy_digest=table.digest(),
            policy_epoch=table.epoch,
            contracts_digest=report.contracts_digest,
            verdicts=report.verdicts,
            guards_proven=report.guards_proven,
            guards_dynamic=report.guards_dynamic,
        )
    if key is not None and entry is None:
        COMPILE_CACHE.put(key, _CachedCompile(
            ir=ir.clone(),
            stats=stats.copy(),
            report=report,
            ir_digest=ir_digest,
        ))
    compiled = CompiledModule(
        ir=ir,
        signature=signature,
        source_lines=stats.source_lines,
        certificate=certificate,
    )
    compiled.stats = stats  # type: ignore[attr-defined]
    return compiled


def _compile(
    source: Union[str, Module], opts: CompileOptions
) -> tuple[Module, CompileStats, Optional[VerificationReport]]:
    """Front end, passes and (for a verifying compile) the static
    analysis: everything the compile cache stores."""
    stats = CompileStats()
    if isinstance(source, str):
        stats.source_lines = sum(
            1 for line in source.splitlines() if line.strip()
        )
        ir = compile_source(source, opts.module_name)
    else:
        ir = source
        if opts.module_name != "module":
            ir.name = opts.module_name
    verify_module(ir)

    pm = PassManager(verify_each=opts.verify_each_pass)
    if opts.optimize:
        pm.add(Mem2RegPass()).add(PeepholePass()).add(DCEPass())
    pm.run(ir)
    stats.instructions_before_guards = ir.instruction_count()

    eliminate, hoist, coalesce = opts.guard_opt_toggles()
    guard_opt: Optional[GuardOptPass] = None
    pm2 = PassManager(verify_each=opts.verify_each_pass)
    pm2.add(AttestationPass())
    if opts.protect:
        pm2.add(GuardInjectionPass())
        if opts.guard_intrinsics:
            pm2.add(IntrinsicGuardPass())
        if opts.guard_calls:
            from ..passes.call_guard import CallGuardPass

            pm2.add(CallGuardPass())
        if eliminate or hoist or coalesce:
            guard_opt = GuardOptPass(
                hoist_loops=hoist, eliminate=eliminate, coalesce=coalesce
            )
            pm2.add(guard_opt)
            pm2.add(DCEPass())  # sweep dead address casts left behind
    pm2.run(ir)

    stats.passes_run = [name for name, _ in pm.log + pm2.log]
    stats.instructions_after = ir.instruction_count()
    stats.functions = len(ir.defined_functions())
    for fn in ir.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, Load):
                stats.loads += 1
            elif isinstance(inst, Store):
                stats.stores += 1
            elif isinstance(inst, Call) and inst.is_guard:
                stats.guards += 1
    stats.opt_level = opts.resolved_opt_level()
    if guard_opt is not None:
        stats.guards_removed = guard_opt.guards_removed
        stats.guards_hoisted = guard_opt.guards_hoisted
        stats.guards_coalesced = guard_opt.guards_coalesced

    # -O3: prove guard ranges against the live policy table.  The
    # verdicts are computed on the final IR (after guard opt), so the
    # signature attests to exactly the code the verdicts describe.
    report = None
    if _verifying(opts):
        verifier = ModuleVerifier(ir, opts.verify_table, opts.contracts)
        report = verifier.run()
        stats.guards_proven = report.guards_proven
        stats.guards_dynamic = report.guards_dynamic
        stats.passes_run.append("kop-absint")

    if opts.protect:
        ir.metadata[abi.META_GUARD_COUNT] = stats.guards
        ir.metadata[abi.META_OPT_LEVEL] = stats.opt_level
        ir.metadata[abi.META_GUARDS_REMOVED] = stats.guards_removed
        ir.metadata[abi.META_GUARDS_HOISTED] = stats.guards_hoisted
        ir.metadata[abi.META_GUARDS_COALESCED] = stats.guards_coalesced
        if report is not None:
            ir.metadata[abi.META_GUARDS_PROVEN] = stats.guards_proven
            ir.metadata[abi.META_GUARDS_DYNAMIC] = stats.guards_dynamic
    return ir, stats, report


__all__ = [
    "COMPILE_CACHE",
    "COMPILE_CACHE_ENTRIES",
    "CompileOptions",
    "CompileStats",
    "compile_module",
]
