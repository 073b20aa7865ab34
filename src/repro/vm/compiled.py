"""Translate-once, direct-threaded execution engine.

The interpreter (:mod:`repro.vm.interp`) re-dispatches on ``type(inst)``
and re-evaluates every operand through ``env[id(...)]`` dict lookups on
every visit of a basic block.  This engine translates each IR function
**once**: every basic block becomes Python source — generated at
translate time and compiled with :func:`compile`/``exec`` — so the hot
path is straight-line bytecode with no dispatch loop at all:

- operand accessors are resolved at translate time — int constants
  become literals in the generated source, global addresses become
  names bound per translation, SSA values are reads of preallocated
  slots in a flat ``regs`` list;
- per-instruction cycle costs are resolved against the machine model at
  translate time and emitted as ``timing.cycles += <literal>``;
- integer arithmetic (binops, compares, casts, geps, selects) is
  emitted as inline expressions; stateful operations — loads, stores,
  calls, guards, allocas, float math — call specialized per-site
  closures bound per translation;
- loads and stores fuse the mapping lookup the interpreter performs
  twice (once for MMIO accounting, once inside ``read_bytes``) into a
  single ``find`` plus a direct page-bytearray access for intra-page RAM
  accesses, with a per-site mapping memo keyed on the address space's
  map/unmap version.

Accounting is **bit-identical** to the interpreter: every counter is
charged per instruction, in the interpreter's order (float addition does
not reassociate, and natives observe ``timing.cycles`` mid-execution),
guard calls are charged only through ``add_guard``, and phi nodes bump
only ``timing.instructions``.  The differential test
(``tests/vm/test_compiled_vs_interp.py``) pins this down.

Translations are cached on the :class:`LoadedModule` (keyed by engine
instance, then by function) and invalidated when the module IR's
``generation`` counter moves or the engine's profiler or tracer changes
(profiler and tracer presence is specialized into the closures — a
disabled tracer therefore costs literally nothing in generated code,
the compiled-engine analog of a patched-out static key).

Below both of those sits a **process-global code cache**
(:data:`TRANSLATION_CACHE`): the ``compile()`` of the generated source
is shared across engines, :class:`~repro.core.system.CaratKopSystem`
instances, and reloads.  The generated source is itself a faithful
content hash of everything the bytecode depends on — the instruction
stream, per-opcode machine costs, and profiler presence are all emitted
as source literals, while everything load- or engine-specific (global
addresses, per-site closures, hoisted constants, the
engine/timing/profiler references) is a parameter of the generated
factory ``_mk``, bound per translation by calling it — so two
translations with identical source can always share one code object.
The source is position-independent: global addresses are relocations
bound per translation, like insmod relocating a compiled module, so an
rmmod + insmod of the same module at a new base, or the second system
in a process (a fleet of benchmark trials, a process pool worker
warm-up, repeated test fixtures), skips every ``compile()`` call the
first load paid for.  The bindings are closure cells rather than
module globals: CPython specializes global loads against one globals
dict, so a shared code object run against a new namespace on every
reload would deoptimize and re-specialize each time.
"""

from __future__ import annotations

import struct

from .. import abi
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    FCmp,
    Gep,
    ICmp,
    InlineAsm,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..ir.types import FloatType, IntType, PointerType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
)
from ..kernel import layout
from ..kernel.module_loader import LoadedModule
from ..kernel.panic import MemoryFault
from ..trace.vmhook import guard_site_id
from .interp import Interpreter, InterpreterError

_MASK64 = (1 << 64) - 1
_F32 = struct.Struct("<f")


class _SharedCodeCache:
    """Process-global memo of compiled translation factories.

    Keyed by ``(filename, source)``.  The source embeds every input the
    bytecode depends on (module content, IR-generation-visible edits,
    machine cost model, profiler charge lines), and the variant state it
    does *not* embed — global addresses, per-site closures, hoisted
    constants, engine references — is passed to the factory on every
    translation, so a key hit is always safe to rehydrate against a
    different load address, engine, tracer, or system instance."""

    __slots__ = ("factories", "hits", "misses")

    def __init__(self):
        self.factories: dict = {}
        self.hits = 0
        self.misses = 0

    def fetch(self, filename: str, src: str):
        """Return ``(factory, was_hit)`` for the generated source, which
        defines the factory as ``_mk``."""
        key = (filename, src)
        factory = self.factories.get(key)
        if factory is not None:
            self.hits += 1
            return factory, True
        self.misses += 1
        ns: dict = {}
        exec(compile(src, filename, "exec"), ns)
        factory = self.factories[key] = ns["_mk"]
        return factory, False

    def stats(self) -> dict:
        return {
            "entries": len(self.factories),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self.factories.clear()
        self.hits = 0
        self.misses = 0


#: The process-global translation code cache (see module docstring).
TRANSLATION_CACHE = _SharedCodeCache()


def translation_cache_stats() -> dict:
    """Snapshot of the process-global code cache counters."""
    return TRANSLATION_CACHE.stats()


class _CompiledBlock:
    """One translated basic block.

    ``run`` is a Python function compiled from generated source: the
    block's straight-line body with per-instruction accounting inlined
    as literal statements, integer arithmetic inlined as expressions,
    and the remaining operations (memory, calls, guards, floats) left
    as calls into specialized closures.  It takes the register file and
    returns the next block index, or -1 to return from the function.

    ``phi_plans`` maps predecessor block index to the copy plan the
    execution loop applies before running the body (phis read
    pre-transfer values, so they cannot live inside ``run``)."""

    __slots__ = ("phi_plans", "run")

    def __init__(self, phi_plans, run):
        self.phi_plans = phi_plans
        self.run = run


class _CompiledFunction:
    """A function's translation, tagged with its invalidation keys."""

    __slots__ = ("blocks", "block_names", "nregs", "module", "generation",
                 "profiler", "tracer")

    def __init__(self, blocks, block_names, nregs, module, generation,
                 profiler, tracer):
        self.blocks = blocks
        self.block_names = block_names
        self.nregs = nregs
        self.module = module
        self.generation = generation
        self.profiler = profiler
        self.tracer = tracer


class CompiledEngine(Interpreter):
    """Drop-in replacement for :class:`Interpreter` with translate-once
    execution.  Shares the interpreter's call/guard dispatch helpers, so
    native dispatch, late guard re-linking, and panic semantics are the
    same code path."""

    name = "compiled"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # L1 translation memo keyed by IR function object; entries
        # re-validate module identity, IR generation, profiler and
        # tracer, so a re-insmod (a new LoadedModule) and
        # invalidate_translations (generation bump) both re-translate —
        # binding the new load's addresses to the cached code object.
        self._tcache: dict = {}
        # This engine's traffic against the process-global code cache
        # (the cache's own counters aggregate every engine in the
        # process; these attribute the hits to one system).
        self.translation_cache_hits = 0
        self.translation_cache_misses = 0

    def _exec_function(self, module: LoadedModule, fn, args: list):
        # The declaration check lives in the translator (a cached
        # translation implies a definition; IR edits that strip blocks
        # bump the generation and re-translate), so every call raises
        # the same error as the interpreter — just not per-call.
        code = self._translation(module, fn)
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"@{fn.name}: expected {len(fn.args)} args, got {len(args)}"
            )
        self._depth += 1
        if self._depth > self.max_call_depth:
            self._depth -= 1
            self.kernel.panic(f"kernel stack overflow in @{fn.name}")
        saved_stack = self._stack_top
        profiler = self.profiler
        if profiler is not None:
            profiler.enter_function(fn.name)
        tracer = self.tracer
        if tracer is not None:
            tracer.enter_function(fn.name)
        timing = self.timing
        regs = [None] * code.nregs
        regs[1:1 + len(args)] = args
        blocks = code.blocks
        prev = -1
        bi = 0
        # Per-instruction accounting (and ``instructions_executed``
        # batching) lives inside the generated block bodies; the loop
        # here only routes control flow and applies phi copy plans.
        try:
            while True:
                b = blocks[bi]
                plans = b.phi_plans
                if plans is not None:
                    plan = plans.get(prev)
                    if type(plan) is not list:
                        raise KeyError(
                            "phi has no incoming edge from "
                            f"{code.block_names[prev] if prev >= 0 else None}"
                        )
                    # Phis read pre-transfer values: evaluate all sources
                    # before writing any destination slot.
                    vals = [regs[v] if r else v for (_, r, v) in plan]
                    k = 0
                    for item in plan:
                        regs[item[0]] = vals[k]
                        k += 1
                    if timing is not None:
                        timing.instructions += len(plan)
                nxt = b.run(regs)
                if nxt < 0:
                    return regs[0]
                prev = bi
                bi = nxt
        finally:
            self._stack_top = saved_stack
            self._depth -= 1
            if profiler is not None:
                profiler.exit_function(fn.name)
            if tracer is not None:
                tracer.exit_function(fn.name)

    # -- translation cache -------------------------------------------------

    def _translation(self, module: LoadedModule, fn) -> _CompiledFunction:
        entry = self._tcache.get(fn)
        if (
            entry is not None
            and entry.module is module
            and entry.generation == module.ir.generation
            and entry.profiler is self.profiler
            and entry.tracer is self.tracer
        ):
            return entry
        store = module.translations.get(self)
        if store is None:
            store = {}
            module.translations[self] = store
        entry = store.get(fn)
        generation = module.ir.generation
        if (
            entry is None
            or entry.generation != generation
            or entry.profiler is not self.profiler
            or entry.tracer is not self.tracer
        ):
            entry = _Translator(self, module, fn).translate(generation)
            store[fn] = entry
        self._tcache[fn] = entry
        return entry

    def forget_module(self, module: LoadedModule) -> None:
        """Purge an unloaded module's translations from the L1 memo, so
        long rmmod/eject + re-insmod cycles don't keep dead modules (and
        their IR) alive; the per-module store dies with the LoadedModule
        itself."""
        self._tcache = {
            fn: entry for fn, entry in self._tcache.items()
            if entry.module is not module
        }


class _Translator:
    """Translates one function into a :class:`_CompiledFunction`.

    One instance per translation; holds the register map and the
    engine/timing/profiler the closures specialize against."""

    def __init__(self, engine: CompiledEngine, module: LoadedModule, fn):
        if fn.is_declaration:
            raise InterpreterError(f"cannot execute declaration @{fn.name}")
        self.engine = engine
        self.module = module
        self.fn = fn
        self.timing = engine.timing
        self.profiler = engine.profiler
        self.tracer = engine.tracer
        # Guard call sites numbered in translation order; the same walk
        # (blocks in order, stopping at terminators) backs the
        # interpreter's VMTracer.site_for, so ids agree across engines.
        self._guard_ordinal = 0
        # Slot 0 is the return value; arguments fill 1..n; every
        # instruction gets a slot (void results simply never store).
        self.regmap: dict = {}
        slot = 1
        for a in fn.args:
            self.regmap[a] = slot
            slot += 1
        for block in fn.blocks:
            for inst in block.instructions:
                self.regmap[inst] = slot
                slot += 1
        self.nregs = slot
        self.block_index = {b: i for i, b in enumerate(fn.blocks)}

    def translate(self, generation: int) -> _CompiledFunction:
        # The generated factory's parameters: engine/timing/profiler
        # under fixed short names, plus per-site closures (``C<n>``),
        # hoisted non-int constants (``K<n>``), switch tables
        # (``TBL<n>``), and global addresses (``G<n>``).
        self._gnames: dict = {}
        self.ns: dict = {
            "E": self.engine,
            "T": self.timing,
            "P": self.profiler,
            "IE": InterpreterError,
        }
        self._nsym = 0
        plans = []
        lines: list[str] = []
        for i, block in enumerate(self.fn.blocks):
            plans.append(self._translate_block(block, i, lines))
        n = len(self.fn.blocks)
        src = "\n".join(
            [f"def _mk({', '.join(self.ns)}):"]
            + ["    " + line for line in lines]
            + [f"    return ({''.join(f'_b{i}, ' for i in range(n))})"]
        )
        factory, hit = TRANSLATION_CACHE.fetch(
            f"<compiled {self.module.name}:@{self.fn.name}>", src
        )
        if hit:
            self.engine.translation_cache_hits += 1
        else:
            self.engine.translation_cache_misses += 1
        runs = factory(*self.ns.values())
        blocks = [_CompiledBlock(plans[i], runs[i]) for i in range(n)]
        return _CompiledFunction(
            blocks,
            [b.name for b in self.fn.blocks],
            self.nregs,
            self.module,
            generation,
            self.profiler,
            self.tracer,
        )

    # -- codegen helpers ---------------------------------------------------

    def _bind(self, prefix: str, obj) -> str:
        """Bind ``obj`` as a parameter of the generated factory."""
        name = f"{prefix}{self._nsym}"
        self._nsym += 1
        self.ns[name] = obj
        return name

    def _src(self, v) -> str:
        """Source expression for operand ``v``: a register read, an int
        literal, a hoisted constant (floats don't all have source
        literals — nan/inf — so any non-int constant is hoisted), or a
        global's bound address."""
        if type(v) is GlobalVariable:
            return self._global(v, 0)
        is_reg, c = self._spec(v)
        if is_reg:
            return f"r[{c}]"
        if type(c) is int:
            return repr(c) if c >= 0 else f"({c!r})"
        return self._bind("K", c)

    def _global(self, g: GlobalVariable, delta: int) -> str:
        """Name bound to ``(&g + delta) & MASK``.  Addresses are
        relocations: they are bound per translation, never written into
        the source, so a reloaded module prints the same source at its
        new base and rehydrates the cached code object.  One name per
        ``(global, delta)``, numbered in first-reference order."""
        key = (g.name, delta)
        name = self._gnames.get(key)
        if name is None:
            addr = self._spec(g)[1]
            name = self._bind("G", (addr + delta) & _MASK64)
            self._gnames[key] = name
        return name

    # -- operands ----------------------------------------------------------

    def _spec(self, v) -> tuple[bool, object]:
        """Resolve an operand to ``(is_register, slot_or_constant)``."""
        k = type(v)
        if k is ConstantInt or k is ConstantFloat:
            return False, v.value
        if k is ConstantNull or k is UndefValue:
            return False, 0
        if k is GlobalVariable:
            addr = self.module.global_addresses.get(v.name)
            if addr is None:
                raise InterpreterError(
                    f"module {self.module.name}: no storage for @{v.name}"
                )
            return False, addr
        if k is ConstantString:
            raise InterpreterError("string constants must live in globals")
        slot = self.regmap.get(v)
        if slot is None:
            raise InterpreterError(
                f"use of undefined value %{v.name} ({v.type})"
            )
        return True, slot

    # -- blocks ------------------------------------------------------------

    def _translate_block(self, block, bi: int, out: list[str]):
        """Emit ``def _b<bi>(r): ...`` into ``out``; return the phi plans.

        The body counts instructions in a local ``n`` (assigned *before*
        each step, mirroring the interpreter's charge-then-execute order)
        and flushes the batch into ``engine.instructions_executed`` right
        before the terminator's return — the only statements after the
        flush are provably non-raising return expressions.  An exception
        unwinding mid-block flushes the partial count in the handler, so
        the engine counter is exact even across panics."""
        insts = block.instructions
        n_phi = 0
        phi_plans = None
        if insts and isinstance(insts[0], Phi):
            # Leading phis become per-predecessor copy plans; a phi later
            # in the block is an execution error, matching the interpreter.
            while n_phi < len(insts) and isinstance(insts[n_phi], Phi):
                n_phi += 1
            phis = insts[:n_phi]
            mentioned: set[int] = set()
            for phi in phis:
                for _, pred in phi.incoming:
                    pi = self.block_index.get(pred)
                    if pi is not None:
                        mentioned.add(pi)
            phi_plans = {}
            for pi in mentioned:
                plan: object = []
                for phi in phis:
                    spec = None
                    # First matching edge wins, like ``incoming_for``.
                    for value, pred in phi.incoming:
                        if self.block_index.get(pred) == pi:
                            spec = self._spec(value)
                            break
                    if spec is None:
                        # Some phi lacks this edge: taking it is a
                        # KeyError at runtime, same as the interpreter.
                        plan = False
                        break
                    plan.append((self.regmap[phi], spec[0], spec[1]))
                phi_plans[pi] = plan
        body: list[str] = []
        k = 0
        terminated = False
        for inst in insts[n_phi:]:
            kind = type(inst)
            if kind is Br or kind is Ret or kind is Switch:
                self._emit_terminator(inst, body, k + 1)
                terminated = True
                break
            if kind is Unreachable:
                self._emit_unreachable(inst, body, k + 1)
                terminated = True
                break
            k += 1
            body.append(f"n = {k}")
            self._emit_step(inst, body)
        if not terminated:
            # Falling off a block is an execution error, not an
            # instruction — nothing is charged (the handler flushes the
            # step count accumulated so far).
            msg = f"block {block.name} in @{self.fn.name} fell through"
            body.append(f"raise IE({msg!r})")
        out.append(f"def _b{bi}(r):")
        out.append("    n = 0")
        out.append("    try:")
        for line in body:
            out.append("        " + line)
        out.append("    except BaseException:")
        out.append("        E.instructions_executed += n")
        out.append("        raise")
        return phi_plans

    # -- charging ----------------------------------------------------------

    def _emit_charge(self, opcode: str, body: list[str]) -> None:
        """Emit the interpreter's per-instruction accounting as literal
        statements (cost pre-resolved against the machine model; ``repr``
        of a float round-trips exactly)."""
        if self.timing is not None:
            cost = self.timing.machine.op_cost(opcode)
            body.append("T.instructions += 1")
            body.append(f"T.cycles += {cost!r}")
            if self.profiler is not None:
                body.append(f"P.on_instruction({opcode!r}, {cost!r})")
        elif self.profiler is not None:
            body.append(f"P.on_instruction({opcode!r}, 0.0)")

    # -- straight-line steps -----------------------------------------------

    _INLINE_INT_OPS = frozenset(
        ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
    )

    def _emit_step(self, inst, body: list[str]) -> None:
        kind = type(inst)
        if kind is BinOp:
            if (isinstance(inst.type, IntType)
                    and inst.op in self._INLINE_INT_OPS):
                self._emit_charge(inst.opcode, body)
                self._emit_int_binop(inst, body)
                return
            # Division (panic path) and float arithmetic stay closures.
            self._emit_charge(inst.opcode, body)
            body.append(f"{self._bind('C', self._binop_core(inst))}(r)")
            return
        if kind is ICmp:
            self._emit_charge(inst.opcode, body)
            self._emit_icmp(inst, body)
            return
        if kind is Cast:
            self._emit_charge(inst.opcode, body)
            self._emit_cast(inst, body)
            return
        if kind is Gep:
            self._emit_charge(inst.opcode, body)
            self._emit_gep(inst, body)
            return
        if kind is Select:
            self._emit_charge(inst.opcode, body)
            c = self._src(inst.operands[0])
            t = self._src(inst.operands[1])
            f = self._src(inst.operands[2])
            body.append(f"r[{self.regmap[inst]}] = {t} if {c} else {f}")
            return
        if kind is Load:
            self._emit_charge(inst.opcode, body)
            body.append(f"{self._bind('C', self._load_core(inst))}(r)")
            return
        if kind is Store:
            self._emit_charge(inst.opcode, body)
            body.append(f"{self._bind('C', self._store_core(inst))}(r)")
            return
        if kind is Call:
            if inst.is_guard or inst.callee.name == abi.GUARD_SYMBOL:
                if id(inst) in self.module.elided_guards:
                    # Statically proven in-policy at insmod (-O3): emit
                    # no code at all.  The ordinal still advances so
                    # guard-site IDs stay aligned with the interpreter's
                    # walk, and the missing line changes the source text,
                    # so the process-global translation cache can never
                    # serve an elided body to an unverified module.
                    self._guard_ordinal += 1
                    return
                # Guard calls bypass add_op/profiler (charged through the
                # guard cost only, like the interpreter) — no charge lines.
                body.append(f"{self._bind('C', self._guard_core(inst))}(r)")
                return
            self._emit_charge(inst.opcode, body)
            body.append(f"{self._bind('C', self._call_core(inst))}(r)")
            return
        if kind is Alloca:
            self._emit_charge(inst.opcode, body)
            body.append(f"{self._bind('C', self._alloca_core(inst))}(r)")
            return
        if kind is FCmp:
            self._emit_charge(inst.opcode, body)
            body.append(f"{self._bind('C', self._fcmp_core(inst))}(r)")
            return
        if kind is InlineAsm:
            self._emit_charge(inst.opcode, body)
            msg = (
                f"module {self.module.name}: executed inline assembly "
                "(should have been rejected at load time)"
            )
            body.append(f"E.kernel.panic({msg!r})")
            return
        # Misplaced phi or unknown opcode: fail at execution time like
        # the interpreter's exhaustive dispatch.
        self._emit_charge(inst.opcode, body)
        body.append(f"raise IE({f'cannot execute {inst.opcode}'!r})")

    # -- inline integer arithmetic -----------------------------------------

    def _emit_int_binop(self, inst: BinOp, body: list[str]) -> None:
        a = self._src(inst.lhs)
        b = self._src(inst.rhs)
        t = inst.type
        s = self.regmap[inst]
        op = inst.op
        mask = t.max_unsigned
        bits = t.bits
        if op == "add":
            body.append(f"r[{s}] = ({a} + {b}) & {mask}")
        elif op == "sub":
            body.append(f"r[{s}] = ({a} - {b}) & {mask}")
        elif op == "mul":
            body.append(f"r[{s}] = ({a} * {b}) & {mask}")
        elif op == "and":
            body.append(f"r[{s}] = {a} & {b}")
        elif op == "or":
            body.append(f"r[{s}] = {a} | {b}")
        elif op == "xor":
            body.append(f"r[{s}] = {a} ^ {b}")
        elif op == "shl":
            body.append(f"r[{s}] = ({a} << ({b} % {bits})) & {mask}")
        elif op == "lshr":
            body.append(f"r[{s}] = {a} >> ({b} % {bits})")
        elif bits > 1:  # ashr: ``to_signed`` inlined (mask, bias, wrap)
            body.append(f"x = {a} & {mask}")
            body.append(f"if x > {t.max_signed}:")
            body.append(f"    x -= {1 << bits}")
            body.append(f"r[{s}] = (x >> ({b} % {bits})) & {mask}")
        else:  # ashr on i1: no negative range
            body.append(f"r[{s}] = ({a} & 1) >> ({b} % 1)")

    _CMP_SRC = {
        "eq": "==", "ne": "!=",
        "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
        "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    }

    def _emit_icmp(self, inst: ICmp, body: list[str]) -> None:
        a = self._src(inst.lhs)
        b = self._src(inst.rhs)
        s = self.regmap[inst]
        c = self._CMP_SRC[inst.pred]
        t = inst.lhs.type
        if inst.pred in self._SIGNED_PREDS and not isinstance(t, PointerType):
            assert isinstance(t, IntType)
            if t.bits > 1:
                # ``to_signed`` inlined: mask, then bias down past the
                # sign bit.  (i1 has no negative range — raw compare.)
                mask, ms, span = t.max_unsigned, t.max_signed, 1 << t.bits
                body.append(f"x = {a} & {mask}")
                body.append(f"if x > {ms}:")
                body.append(f"    x -= {span}")
                body.append(f"y = {b} & {mask}")
                body.append(f"if y > {ms}:")
                body.append(f"    y -= {span}")
                body.append(f"r[{s}] = 1 if x {c} y else 0")
            else:
                body.append(f"r[{s}] = 1 if ({a} & 1) {c} ({b} & 1) else 0")
        else:
            body.append(f"r[{s}] = 1 if {a} {c} {b} else 0")

    def _emit_cast(self, inst: Cast, body: list[str]) -> None:
        op = inst.op
        s = self.regmap[inst]
        if op in ("sitofp", "fptosi", "fptrunc"):
            # Float conversions (f32 narrowing via struct) stay closures.
            body.append(f"{self._bind('C', self._cast_core(inst))}(r)")
            return
        v = self._src(inst.value)
        if op in ("bitcast", "inttoptr", "ptrtoint", "zext", "fpext"):
            body.append(f"r[{s}] = {v}")
        elif op == "trunc":
            assert isinstance(inst.type, IntType)
            body.append(f"r[{s}] = {v} & {inst.type.max_unsigned}")
        elif op == "sext":
            src = inst.value.type
            t = inst.type
            assert isinstance(src, IntType) and isinstance(t, IntType)
            if src.bits > 1:
                body.append(f"x = {v} & {src.max_unsigned}")
                body.append(
                    f"r[{s}] = ((x - {1 << src.bits}) & {t.max_unsigned})"
                    f" if x > {src.max_signed} else x"
                )
            else:  # i1 has no negative range: sext == zext
                body.append(f"r[{s}] = {v} & 1")
        else:  # pragma: no cover - verifier rejects other casts
            raise InterpreterError(f"bad cast {op}")

    def _emit_gep(self, inst: Gep, body: list[str]) -> None:
        ir_, iv = self._spec(inst.index)
        s = self.regmap[inst]
        if not ir_:
            # Constant index: fold the whole displacement (off a global,
            # into one bound address, so the hot path stays one load).
            delta = abi.to_signed64(iv) * inst.scale + inst.displacement
            if type(inst.base) is GlobalVariable:
                body.append(f"r[{s}] = {self._global(inst.base, delta)}")
            else:
                base = self._src(inst.base)
                body.append(f"r[{s}] = ({base} + ({delta})) & {_MASK64}")
        else:
            base = self._src(inst.base)
            # ``abi.to_signed64`` inlined (bias only — values are already
            # width-masked).
            body.append(f"x = r[{iv}]")
            body.append(f"if x > {0x7FFFFFFFFFFFFFFF}:")
            body.append(f"    x -= {1 << 64}")
            body.append(
                f"r[{s}] = ({base} + x * {inst.scale}"
                f" + ({inst.displacement})) & {_MASK64}"
            )

    # -- arithmetic --------------------------------------------------------

    def _binop_core(self, inst: BinOp):
        """Closure builder for the binops codegen doesn't inline:
        division (panic-on-zero path) and float arithmetic."""
        ar, av = self._spec(inst.lhs)
        br, bv = self._spec(inst.rhs)
        op = inst.op
        t = inst.type
        if isinstance(t, FloatType):
            return self._float_binop_core(inst, ar, av, br, bv)
        assert isinstance(t, IntType)
        if op not in ("sdiv", "udiv", "srem", "urem"):  # pragma: no cover
            raise InterpreterError(f"bad int op {op}")
        return self._divrem_core(inst, op, t, ar, av, br, bv)

    def _divrem_core(self, inst, op, t, ar, av, br, bv):
        slot = self.regmap[inst]
        eng = self.engine
        ts, wrap = t.to_signed, t.wrap
        msg = f"module {self.module.name}: divide error ({op} by zero)"
        if op == "sdiv":
            def core(regs, _s=slot, _ts=ts, _w=wrap, _e=eng, _m=msg):
                sa = _ts(regs[av] if ar else av)
                sb = _ts(regs[bv] if br else bv)
                if sb == 0:
                    _e.kernel.panic(_m)
                regs[_s] = _w(int(sa / sb))
        elif op == "udiv":
            def core(regs, _s=slot, _e=eng, _m=msg):
                a = regs[av] if ar else av
                b = regs[bv] if br else bv
                if b == 0:
                    _e.kernel.panic(_m)
                regs[_s] = a // b
        elif op == "srem":
            def core(regs, _s=slot, _ts=ts, _w=wrap, _e=eng, _m=msg):
                sa = _ts(regs[av] if ar else av)
                sb = _ts(regs[bv] if br else bv)
                if sb == 0:
                    _e.kernel.panic(_m)
                regs[_s] = _w(sa - int(sa / sb) * sb)
        else:  # urem
            def core(regs, _s=slot, _e=eng, _m=msg):
                a = regs[av] if ar else av
                b = regs[bv] if br else bv
                if b == 0:
                    _e.kernel.panic(_m)
                regs[_s] = a % b
        return core

    def _float_binop_core(self, inst, ar, av, br, bv):
        slot = self.regmap[inst]
        op = inst.op
        narrow = inst.type.bits == 32
        if op not in ("fadd", "fsub", "fmul", "fdiv"):  # pragma: no cover
            raise InterpreterError(f"bad float op {op}")

        def core(regs, _s=slot, _op=op, _n=narrow):
            a = regs[av] if ar else av
            b = regs[bv] if br else bv
            if _op == "fadd":
                r = a + b
            elif _op == "fsub":
                r = a - b
            elif _op == "fmul":
                r = a * b
            elif b == 0.0:
                r = (float("inf") if a > 0
                     else float("-inf") if a < 0 else float("nan"))
            else:
                r = a / b
            if _n:
                r = _F32.unpack(_F32.pack(r))[0]
            regs[_s] = r

        return core

    _SIGNED_PREDS = frozenset(("slt", "sle", "sgt", "sge"))

    def _fcmp_core(self, inst: FCmp):
        import operator as _op

        cmp_fn = {
            "oeq": _op.eq, "one": _op.ne, "olt": _op.lt,
            "ole": _op.le, "ogt": _op.gt, "oge": _op.ge,
        }[inst.pred]
        ar, av = self._spec(inst.operands[0])
        br, bv = self._spec(inst.operands[1])
        slot = self.regmap[inst]

        def core(regs, _s=slot, _c=cmp_fn):
            a = regs[av] if ar else av
            b = regs[bv] if br else bv
            if a != a or b != b:  # NaN: ordered predicates are all false
                regs[_s] = 0
            else:
                regs[_s] = 1 if _c(a, b) else 0

        return core

    def _cast_core(self, inst: Cast):
        """Closure builder for the casts codegen doesn't inline (float
        conversions; everything else is emitted as source)."""
        vr, vv = self._spec(inst.value)
        slot = self.regmap[inst]
        op = inst.op
        t = inst.type
        if op == "sitofp":
            src = inst.value.type
            assert isinstance(src, IntType)
            ts = src.to_signed
            narrow = isinstance(t, FloatType) and t.bits == 32

            def core(regs, _s=slot, _ts=ts, _n=narrow):
                r = float(_ts(regs[vv] if vr else vv))
                if _n:
                    r = _F32.unpack(_F32.pack(r))[0]
                regs[_s] = r
        elif op == "fptosi":
            assert isinstance(t, IntType)
            wrap = t.wrap

            def core(regs, _s=slot, _w=wrap):
                regs[_s] = _w(int(regs[vv] if vr else vv))
        elif op == "fptrunc":
            def core(regs, _s=slot):
                regs[_s] = _F32.unpack(_F32.pack(regs[vv] if vr else vv))[0]
        else:  # pragma: no cover - verifier rejects other casts
            raise InterpreterError(f"bad cast {op}")
        return core

    def _alloca_core(self, inst: Alloca):
        slot = self.regmap[inst]
        size = inst.size_bytes
        align_mask = ~(max(inst.allocated_type.align_bytes(), 8) - 1)
        eng = self.engine
        kbase = layout.KSTACK_BASE

        def core(regs, _s=slot, _sz=size, _am=align_mask, _e=eng, _kb=kbase):
            top = (_e._stack_top - _sz) & _am
            if top < _kb:
                _e.kernel.panic("kernel stack exhausted")
            _e._stack_top = top
            regs[_s] = top

        return core

    # -- memory ------------------------------------------------------------

    def _load_core(self, inst: Load):
        pr, pv = self._spec(inst.pointer)
        slot = self.regmap[inst]
        t = inst.type
        timing = self.timing
        mem = self.engine.kernel.address_space
        find = mem.find
        if isinstance(t, FloatType):
            reader = mem.read_f32 if t.bits == 32 else mem.read_f64
            if timing is not None:
                mrc = timing.machine.mmio_read_cycles

                def core(regs, _s=slot, _t=timing, _f=find, _r=reader,
                         _mrc=mrc):
                    addr = regs[pv] if pr else pv
                    _t.loads += 1
                    m = _f(addr)
                    if m is not None and m.device is not None:
                        _t.mmio_reads += 1
                        _t.cycles += _mrc
                    regs[_s] = _r(addr)
            else:
                def core(regs, _s=slot, _r=reader):
                    regs[_s] = _r(regs[pv] if pr else pv)
            return core
        size = t.size_bytes()
        ram = mem.ram
        pages = ram._pages
        ram_read = ram.read
        ram_size = ram.size
        page_size = layout.PAGE_SIZE
        page_shift = layout.PAGE_SHIFT
        off_mask = page_size - 1
        # Per-site memo of the last RAM mapping hit, guarded by the address
        # space's map/unmap version — a load site almost always touches the
        # same region, so the steady state skips the bisect ``find``.
        # ``find`` is side-effect free and mappings never overlap, so a
        # memo hit returns exactly what ``find`` would.
        memo = [None, -1]
        if timing is not None:
            mrc = timing.machine.mmio_read_cycles

            def core(regs, _s=slot, _z=size, _t=timing, _f=find, _p=pages,
                     _rr=ram_read, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _mrc=mrc,
                     _memo=memo, _a=mem):
                addr = regs[pv] if pr else pv
                _t.loads += 1
                m = _memo[0]
                if (m is not None and _memo[1] == _a.version
                        and m.base <= addr
                        and addr + _z <= m.base + m.size):
                    phys = m.phys_base + (addr - m.base)
                    if phys + _z > _rs:
                        raise MemoryFault(phys, _z, False, "beyond end of RAM")
                    off = phys & _om
                    if off + _z <= _ps:
                        page = _p.get(phys >> _sh)
                        regs[_s] = (0 if page is None else int.from_bytes(
                            page[off:off + _z], "little"))
                    else:
                        regs[_s] = int.from_bytes(_rr(phys, _z), "little")
                    return
                m = _f(addr)
                if m is not None:
                    dev = m.device
                    if dev is not None:
                        _t.mmio_reads += 1
                        _t.cycles += _mrc
                        if addr + _z > m.base + m.size:
                            raise MemoryFault(addr, _z, False, "no mapping")
                        regs[_s] = int.from_bytes(
                            dev.mmio_read(addr - m.base, _z)
                            .to_bytes(_z, "little"), "little")
                        return
                    if addr + _z <= m.base + m.size:
                        _memo[0] = m
                        _memo[1] = _a.version
                        phys = m.phys_base + (addr - m.base)
                        if phys + _z > _rs:
                            raise MemoryFault(
                                phys, _z, False, "beyond end of RAM")
                        off = phys & _om
                        if off + _z <= _ps:
                            page = _p.get(phys >> _sh)
                            regs[_s] = (0 if page is None else int.from_bytes(
                                page[off:off + _z], "little"))
                        else:
                            regs[_s] = int.from_bytes(
                                _rr(phys, _z), "little")
                        return
                raise MemoryFault(addr, _z, False, "no mapping")
        else:
            def core(regs, _s=slot, _z=size, _f=find, _p=pages,
                     _rr=ram_read, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _memo=memo, _a=mem):
                addr = regs[pv] if pr else pv
                m = _memo[0]
                if (m is not None and _memo[1] == _a.version
                        and m.base <= addr
                        and addr + _z <= m.base + m.size):
                    phys = m.phys_base + (addr - m.base)
                    if phys + _z > _rs:
                        raise MemoryFault(phys, _z, False, "beyond end of RAM")
                    off = phys & _om
                    if off + _z <= _ps:
                        page = _p.get(phys >> _sh)
                        regs[_s] = (0 if page is None else int.from_bytes(
                            page[off:off + _z], "little"))
                    else:
                        regs[_s] = int.from_bytes(_rr(phys, _z), "little")
                    return
                m = _f(addr)
                if m is not None:
                    if m.device is not None:
                        if addr + _z > m.base + m.size:
                            raise MemoryFault(addr, _z, False, "no mapping")
                        regs[_s] = int.from_bytes(
                            m.device.mmio_read(addr - m.base, _z)
                            .to_bytes(_z, "little"), "little")
                        return
                    if addr + _z <= m.base + m.size:
                        _memo[0] = m
                        _memo[1] = _a.version
                        phys = m.phys_base + (addr - m.base)
                        if phys + _z > _rs:
                            raise MemoryFault(
                                phys, _z, False, "beyond end of RAM")
                        off = phys & _om
                        if off + _z <= _ps:
                            page = _p.get(phys >> _sh)
                            regs[_s] = (0 if page is None else int.from_bytes(
                                page[off:off + _z], "little"))
                        else:
                            regs[_s] = int.from_bytes(
                                _rr(phys, _z), "little")
                        return
                raise MemoryFault(addr, _z, False, "no mapping")
        return core

    def _store_core(self, inst: Store):
        pr, pv = self._spec(inst.pointer)
        vr, vv = self._spec(inst.value)
        t = inst.value.type
        timing = self.timing
        mem = self.engine.kernel.address_space
        find = mem.find
        if isinstance(t, FloatType):
            writer = mem.write_f32 if t.bits == 32 else mem.write_f64
            if timing is not None:
                mwc = timing.machine.mmio_write_cycles

                def core(regs, _t=timing, _f=find, _w=writer, _mwc=mwc):
                    addr = regs[pv] if pr else pv
                    value = regs[vv] if vr else vv
                    _t.stores += 1
                    m = _f(addr)
                    if m is not None and m.device is not None:
                        _t.mmio_writes += 1
                        _t.cycles += _mwc
                    _w(addr, value)
            else:
                def core(regs, _w=writer):
                    _w(regs[pv] if pr else pv, regs[vv] if vr else vv)
            return core
        size = t.size_bytes()
        mask = (1 << (8 * size)) - 1
        ram = mem.ram
        pages = ram._pages
        ram_write = ram.write
        ram_size = ram.size
        page_size = layout.PAGE_SIZE
        page_shift = layout.PAGE_SHIFT
        off_mask = page_size - 1

        # Same per-site mapping memo as loads; only writable RAM mappings
        # are memoized, so the fast path needs no writability re-check.
        memo = [None, -1]
        if timing is not None:
            mwc = timing.machine.mmio_write_cycles

            def core(regs, _z=size, _k=mask, _t=timing, _f=find, _p=pages,
                     _rw=ram_write, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _mwc=mwc,
                     _memo=memo, _a=mem):
                addr = regs[pv] if pr else pv
                value = regs[vv] if vr else vv
                _t.stores += 1
                m = _memo[0]
                if (m is not None and _memo[1] == _a.version
                        and m.base <= addr
                        and addr + _z <= m.base + m.size):
                    phys = m.phys_base + (addr - m.base)
                    if phys + _z > _rs:
                        raise MemoryFault(phys, _z, False, "beyond end of RAM")
                    v = int(value) & _k
                    off = phys & _om
                    if off + _z <= _ps:
                        pfn = phys >> _sh
                        page = _p.get(pfn)
                        if page is None:
                            page = bytearray(_ps)
                            _p[pfn] = page
                        page[off:off + _z] = v.to_bytes(_z, "little")
                    else:
                        _rw(phys, v.to_bytes(_z, "little"))
                    return
                m = _f(addr)
                if m is not None and m.device is not None:
                    _t.mmio_writes += 1
                    _t.cycles += _mwc
                if m is None or addr + _z > m.base + m.size:
                    raise MemoryFault(addr, _z, True, "no mapping")
                if not m.writable:
                    raise MemoryFault(addr, _z, True, f"{m.name} is read-only")
                v = int(value) & _k
                if m.device is not None:
                    m.device.mmio_write(addr - m.base, _z, v)
                    return
                _memo[0] = m
                _memo[1] = _a.version
                phys = m.phys_base + (addr - m.base)
                if phys + _z > _rs:
                    raise MemoryFault(phys, _z, False, "beyond end of RAM")
                off = phys & _om
                if off + _z <= _ps:
                    pfn = phys >> _sh
                    page = _p.get(pfn)
                    if page is None:
                        page = bytearray(_ps)
                        _p[pfn] = page
                    page[off:off + _z] = v.to_bytes(_z, "little")
                else:
                    _rw(phys, v.to_bytes(_z, "little"))
        else:
            def core(regs, _z=size, _k=mask, _f=find, _p=pages,
                     _rw=ram_write, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _memo=memo, _a=mem):
                addr = regs[pv] if pr else pv
                value = regs[vv] if vr else vv
                m = _memo[0]
                if (m is not None and _memo[1] == _a.version
                        and m.base <= addr
                        and addr + _z <= m.base + m.size):
                    phys = m.phys_base + (addr - m.base)
                    if phys + _z > _rs:
                        raise MemoryFault(phys, _z, False, "beyond end of RAM")
                    v = int(value) & _k
                    off = phys & _om
                    if off + _z <= _ps:
                        pfn = phys >> _sh
                        page = _p.get(pfn)
                        if page is None:
                            page = bytearray(_ps)
                            _p[pfn] = page
                        page[off:off + _z] = v.to_bytes(_z, "little")
                    else:
                        _rw(phys, v.to_bytes(_z, "little"))
                    return
                m = _f(addr)
                if m is None or addr + _z > m.base + m.size:
                    raise MemoryFault(addr, _z, True, "no mapping")
                if not m.writable:
                    raise MemoryFault(addr, _z, True, f"{m.name} is read-only")
                v = int(value) & _k
                if m.device is not None:
                    m.device.mmio_write(addr - m.base, _z, v)
                    return
                _memo[0] = m
                _memo[1] = _a.version
                phys = m.phys_base + (addr - m.base)
                if phys + _z > _rs:
                    raise MemoryFault(phys, _z, False, "beyond end of RAM")
                off = phys & _om
                if off + _z <= _ps:
                    pfn = phys >> _sh
                    page = _p.get(pfn)
                    if page is None:
                        page = bytearray(_ps)
                        _p[pfn] = page
                    page[off:off + _z] = v.to_bytes(_z, "little")
                else:
                    _rw(phys, v.to_bytes(_z, "little"))
        return core

    # -- calls -------------------------------------------------------------

    def _call_core(self, inst: Call):
        eng = self.engine
        module = self.module
        timing = self.timing
        argspec = [self._spec(a) for a in inst.args]
        callee = inst.callee
        is_void = inst.type.is_void
        slot = None if is_void else self.regmap[inst]
        if not callee.is_declaration:
            # Same-module direct call: skip the ``_dispatch_call`` frame.
            if timing is not None:
                if is_void:
                    def core(regs, _e=eng, _m=module, _fn=callee, _a=argspec,
                             _t=timing):
                        _t.calls += 1
                        _e._exec_function(
                            _m, _fn, [regs[v] if r else v for (r, v) in _a])
                else:
                    def core(regs, _s=slot, _e=eng, _m=module, _fn=callee,
                             _a=argspec, _t=timing):
                        _t.calls += 1
                        regs[_s] = _e._exec_function(
                            _m, _fn, [regs[v] if r else v for (r, v) in _a])
            elif is_void:
                def core(regs, _e=eng, _m=module, _fn=callee, _a=argspec):
                    _e._exec_function(
                        _m, _fn, [regs[v] if r else v for (r, v) in _a])
            else:
                def core(regs, _s=slot, _e=eng, _m=module, _fn=callee,
                         _a=argspec):
                    regs[_s] = _e._exec_function(
                        _m, _fn, [regs[v] if r else v for (r, v) in _a])
            return core
        # Declaration: the linked native is the common case — inline it
        # (with the interpreter's int-return normalization); symbols that
        # are unlinked or IR-owned fall back to ``_dispatch_call``, which
        # re-resolves and keeps the error/exotic paths in one place.
        cname = callee.name
        imports = module.imports
        rt = callee.function_type.ret
        rmask = rt.max_unsigned if isinstance(rt, IntType) else None

        def core(regs, _s=slot, _e=eng, _i=inst, _m=module, _a=argspec,
                 _imp=imports, _n=cname, _t=timing, _k=rmask):
            args = [regs[v] if r else v for (r, v) in _a]
            sym = _imp.get(_n)
            if sym is None or sym.native is None:
                ret = _e._dispatch_call(_i, _m, args)
            else:
                if _t is not None:
                    _t.calls += 1
                _e.current_module = _m
                ret = sym.native(_e, *args)
                if _k is not None and isinstance(ret, int):
                    ret &= _k
            if _s is not None:
                regs[_s] = ret

        return core

    def _guard_core(self, inst: Call):
        """Guard calls bypass add_op/profiler (charged via ``add_guard``
        only, like the interpreter) — the emitter writes no charge lines.

        The common case — the guard symbol is linked and native — is
        inlined: the module's import dict and name, and the machine's
        guard cost coefficients, are captured at translate time, so the
        hot path is one dict lookup and one native call.  ``add_guard``'s
        ``cycles += base + entry * n`` is replicated with the same float
        expression, so accounting stays bit-identical.  Anything else
        (unlinked symbol needing the late re-link, IR policy function,
        missing policy panic) falls back to the interpreter's shared
        ``_dispatch_guard``, which consults ``module.imports`` afresh —
        policy swaps mutate that dict in place, so the captured reference
        observes them."""
        eng = self.engine
        module = self.module
        imports = module.imports
        mname = module.name
        gsym = abi.GUARD_SYMBOL
        timing = self.timing
        prof = self.profiler
        ordinal = self._guard_ordinal
        self._guard_ordinal += 1
        ar, av = self._spec(inst.args[0])
        sr, sv = self._spec(inst.args[1])
        fr, fv = self._spec(inst.args[2])
        if self.tracer is not None:
            # Traced translation: the static key is the translation
            # itself — these closures exist only while a tracer is
            # attached; untraced translations carry no trace code at all.
            return self._traced_guard_core(inst, ordinal, ar, av, sr, sv,
                                           fr, fv)
        if timing is not None:
            gb = timing.machine.guard_base_cycles
            ge = timing.machine.guard_entry_cycles
            if prof is None:
                def core(regs, _e=eng, _m=module, _imp=imports, _n=mname,
                         _g=gsym, _t=timing, _gb=gb, _ge=ge):
                    a = regs[av] if ar else av
                    s = regs[sv] if sr else sv
                    f = regs[fv] if fr else fv
                    sym = _imp.get(_g)
                    if sym is None or sym.native is None:
                        _e._dispatch_guard(_m, a, s, f)
                        return
                    _e.guard_checks += 1
                    n = int(sym.native(_e, a, s, f, _n) or 0)
                    _t.guards += 1
                    _t.guard_entries_scanned += n
                    _t.cycles += _gb + _ge * n
            else:
                def core(regs, _e=eng, _m=module, _imp=imports, _n=mname,
                         _g=gsym, _t=timing, _gb=gb, _ge=ge, _p=prof):
                    a = regs[av] if ar else av
                    s = regs[sv] if sr else sv
                    f = regs[fv] if fr else fv
                    sym = _imp.get(_g)
                    if sym is None or sym.native is None:
                        _e._dispatch_guard(_m, a, s, f)
                        return
                    _e.guard_checks += 1
                    n = int(sym.native(_e, a, s, f, _n) or 0)
                    cost = _gb + _ge * n
                    _t.guards += 1
                    _t.guard_entries_scanned += n
                    _t.cycles += cost
                    _p.on_guard(a, s, f, cost)
        elif prof is None:
            def core(regs, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym):
                a = regs[av] if ar else av
                s = regs[sv] if sr else sv
                f = regs[fv] if fr else fv
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    _e._dispatch_guard(_m, a, s, f)
                    return
                _e.guard_checks += 1
                sym.native(_e, a, s, f, _n)
        else:
            def core(regs, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _p=prof):
                a = regs[av] if ar else av
                s = regs[sv] if sr else sv
                f = regs[fv] if fr else fv
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    _e._dispatch_guard(_m, a, s, f)
                    return
                _e.guard_checks += 1
                sym.native(_e, a, s, f, _n)
                _p.on_guard(a, s, f, 0.0)
        return core

    def _traced_guard_core(self, inst: Call, ordinal: int,
                           ar, av, sr, sv, fr, fv):
        """The guard closure compiled while a tracer is attached.

        The callsite id is baked in at translate time (no per-hit walk),
        and the cost expression ``cost = base + entry * n`` is the same
        float-op sequence the untraced closures charge, so simulated
        accounting stays bit-identical with tracing on.  The profiler is
        consulted dynamically (traced runs are not the <2%-overhead
        path)."""
        eng = self.engine
        module = self.module
        imports = module.imports
        mname = module.name
        gsym = abi.GUARD_SYMBOL
        timing = self.timing
        prof = self.profiler
        tracer = self.tracer
        site = guard_site_id(mname, self.fn.name, ordinal)
        if timing is not None:
            gb = timing.machine.guard_base_cycles
            ge = timing.machine.guard_entry_cycles

            def core(regs, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _t=timing, _gb=gb, _ge=ge, _p=prof,
                     _tr=tracer, _site=site, _i=inst):
                a = regs[av] if ar else av
                s = regs[sv] if sr else sv
                f = regs[fv] if fr else fv
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    _e._dispatch_guard(_m, a, s, f, _i)
                    return
                _e.guard_checks += 1
                n = int(sym.native(_e, a, s, f, _n) or 0)
                cost = _gb + _ge * n
                _t.guards += 1
                _t.guard_entries_scanned += n
                _t.cycles += cost
                if _p is not None:
                    _p.on_guard(a, s, f, cost)
                _tr.on_guard(_site, a, s, f, n, cost)
        else:
            def core(regs, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _p=prof, _tr=tracer, _site=site, _i=inst):
                a = regs[av] if ar else av
                s = regs[sv] if sr else sv
                f = regs[fv] if fr else fv
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    _e._dispatch_guard(_m, a, s, f, _i)
                    return
                _e.guard_checks += 1
                n = int(sym.native(_e, a, s, f, _n) or 0)
                if _p is not None:
                    _p.on_guard(a, s, f, 0.0)
                _tr.on_guard(_site, a, s, f, n, 0.0)
        return core

    # -- terminators -------------------------------------------------------

    def _emit_terminator(self, inst, body: list[str], count: int) -> None:
        """Emit the charged terminator.  The batched instruction count is
        flushed immediately before the ``return`` — everything after the
        flush (register reads, int literals, ``dict.get`` on a literal
        table) is non-raising, so the count can never double-flush
        through the exception handler."""
        body.append(f"n = {count}")
        self._emit_charge(inst.opcode, body)
        flush = f"E.instructions_executed += {count}"
        kind = type(inst)
        if kind is Br:
            if inst.is_conditional:
                c = self._src(inst.operands[0])
                ti = self.block_index[inst.targets[0]]
                fi = self.block_index[inst.targets[1]]
                body.append(flush)
                body.append(f"return {ti} if {c} else {fi}")
            else:
                body.append(flush)
                body.append(f"return {self.block_index[inst.targets[0]]}")
            return
        if kind is Ret:
            if inst.value is not None:
                body.append(f"r[0] = {self._src(inst.value)}")
            body.append(flush)
            body.append("return -1")
            return
        assert type(inst) is Switch
        v = self._src(inst.operands[0])
        # First matching case wins, like the interpreter's linear scan:
        # keep only the first target for duplicated case values.
        table: dict[int, int] = {}
        for cv_, target in inst.cases:
            if cv_ not in table:
                table[cv_] = self.block_index[target]
        tbl = self._bind("TBL", table)
        body.append(flush)
        body.append(f"return {tbl}.get({v}, {self.block_index[inst.default]})")

    def _emit_unreachable(
        self, inst: Unreachable, body: list[str], count: int
    ) -> None:
        body.append(f"n = {count}")
        self._emit_charge(inst.opcode, body)
        msg = (
            f"module {self.module.name}: reached 'unreachable' "
            f"in @{self.fn.name}"
        )
        # ``panic`` raises, so the handler flushes the charged count.
        body.append(f"E.kernel.panic({msg!r})")


__all__ = ["CompiledEngine", "TRANSLATION_CACHE", "translation_cache_stats"]
