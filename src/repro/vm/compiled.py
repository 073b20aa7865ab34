"""Translate-once, function-at-a-time execution engine.

The interpreter (:mod:`repro.vm.interp`) re-dispatches on ``type(inst)``
and re-evaluates every operand through ``env[id(...)]`` dict lookups on
every visit of a basic block.  This engine translates each IR function
**once** into **one** Python function — generated at translate time and
compiled with :func:`compile`/``exec`` — so the hot path is straight-line
bytecode with no per-instruction or per-block dispatch:

- the IR arguments are the generated function's positional parameters
  and every SSA value is a Python local (``v<slot>``); int constants
  become literals in the generated source, global addresses become
  names bound per translation;
- the blocks are arms ``if b == <position>:`` of one dispatch over a
  local block index, in reverse postorder: a forward jump sets ``b``
  and falls through to its arm, a loop's back edge sets ``b`` and
  restarts a ``while True`` (emitted only for functions with loops),
  and an entry block nothing jumps to runs ahead of the dispatch;
- phis are parallel tuple copies on each incoming edge, which also
  charges ``timing.instructions`` for them; taking an edge some phi
  lacks raises the interpreter's ``KeyError``;
- integer arithmetic (binops, compares, casts, geps, selects) is
  emitted as inline expressions, with literal operands of signed
  compares and ``sext`` folded to their signed value at translate time;
  stateful operations — loads, stores, calls, guards, allocas, float
  math, division — call specialized per-site closures bound per
  translation, which take the operand values and return the result;
- loads and stores fuse the mapping lookup the interpreter performs
  twice (once for MMIO accounting, once inside ``read_bytes``) into a
  single ``find`` plus a direct page-bytearray access for intra-page RAM
  accesses, with a per-site mapping memo keyed on the address space's
  map/unmap version.

Accounting is **bit-identical** to the interpreter.  Per-instruction
cycle costs are resolved against the machine model at translate time,
and the generated code performs the interpreter's float additions in
the interpreter's order — ``T.cycles = T.cycles + 0.8 + 0.24 + ...``
is left-associated, and Python never folds a constant into a sum whose
left operand is not constant, so the result equals the interpreter's
``+=`` per instruction.  Only the *store* back to the counter is
deferred, together with integer batches of ``timing.instructions`` and
``engine.instructions_executed``, to the next point where other code
can run or an exception can leave: a closure or native call, a panic or
raise, and a terminator.  At each such point every counter holds
exactly what the interpreter would hold (natives observe
``timing.cycles`` mid-execution, and panics are observed at the raise).
Guard calls are charged only through the guard cost, like the
interpreter.  With a profiler attached every instruction is such a
point, so charging stays per instruction.  The differential test
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


class _CompiledFunction:
    """A function's translation, tagged with its invalidation keys.

    ``run`` is the generated Python function: it takes the IR arguments
    positionally and returns the IR return value (``None`` for void)."""

    __slots__ = ("run", "module", "generation", "profiler", "tracer")

    def __init__(self, run, module, generation, profiler, tracer):
        self.run = run
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

    def _exec_function(self, module: LoadedModule, fn, args):
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
        # Accounting, control flow and phi copies all live inside the
        # generated function.
        try:
            return code.run(*args)
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

    One instance per translation; holds the value-to-local map, the
    pending (not yet stored) charges of the block being emitted, and the
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
        # Every argument and instruction gets a local ``v<slot>`` (void
        # results simply never assign theirs); arguments fill 1..n.
        self.names: dict = {}
        slot = 1
        for a in fn.args:
            self.names[a] = f"v{slot}"
            slot += 1
        for block in fn.blocks:
            for inst in block.instructions:
                self.names[inst] = f"v{slot}"
                slot += 1
        self.block_index = {b: i for i, b in enumerate(fn.blocks)}
        # Charges emitted but not yet stored: the ``timing.instructions``
        # batch, the cycle costs still to add (source literals, in
        # interpreter order), and the ``instructions_executed`` batch.
        self._insts = 0
        self._cycles: list[str] = []
        self._steps = 0

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
        body = self._emit_function()
        params = ", ".join(self.names[a] for a in self.fn.args)
        src = "\n".join(
            [f"def _mk({', '.join(self.ns)}):", f"    def _f({params}):"]
            + ["        " + line for line in body]
            + ["    return _f"]
        )
        factory, hit = TRANSLATION_CACHE.fetch(
            f"<compiled {self.module.name}:@{self.fn.name}>", src
        )
        if hit:
            self.engine.translation_cache_hits += 1
        else:
            self.engine.translation_cache_misses += 1
        return _CompiledFunction(
            factory(*self.ns.values()),
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
        """Source expression for operand ``v``: a local, an int literal,
        a hoisted constant (floats don't all have source literals —
        nan/inf — so any non-int constant is hoisted), or a global's
        bound address."""
        if type(v) is GlobalVariable:
            return self._global(v, 0)
        c = self._const(v)
        if c is None:
            return self.names[v]
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
            name = self._bind("G", (self._const(g) + delta) & _MASK64)
            self._gnames[key] = name
        return name

    # -- operands ----------------------------------------------------------

    def _const(self, v):
        """The constant value of operand ``v``, or ``None`` when it is an
        SSA value (a local of the generated function)."""
        k = type(v)
        if k is ConstantInt or k is ConstantFloat:
            return v.value
        if k is ConstantNull or k is UndefValue:
            return 0
        if k is GlobalVariable:
            addr = self.module.global_addresses.get(v.name)
            if addr is None:
                raise InterpreterError(
                    f"module {self.module.name}: no storage for @{v.name}"
                )
            return addr
        if k is ConstantString:
            raise InterpreterError("string constants must live in globals")
        if v not in self.names:
            raise InterpreterError(
                f"use of undefined value %{v.name} ({v.type})"
            )
        return None

    # -- function layout ---------------------------------------------------

    def _successors(self, block) -> list[int]:
        """Indices of the blocks ``block``'s terminator can jump to."""
        for inst in block.instructions:
            kind = type(inst)
            if kind is Br:
                return [self.block_index[t] for t in inst.targets]
            if kind is Switch:
                return [self.block_index[t] for _, t in inst.cases] + [
                    self.block_index[inst.default]]
            if kind is Ret or kind is Unreachable:
                return []
        return []

    @staticmethod
    def _reverse_postorder(succs: list[list[int]]) -> list[int]:
        """Block indices in reverse postorder from the entry (successors
        visited last-first, so a branch's first target comes first),
        then the unreachable blocks in block order."""
        seen = {0}
        post: list[int] = []
        stack = [(0, reversed(succs[0]))]
        while stack:
            node, it = stack[-1]
            for s in it:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, reversed(succs[s])))
                    break
            else:
                stack.pop()
                post.append(node)
        post.reverse()
        return post + [i for i in range(len(succs)) if i not in seen]

    def _emit_function(self) -> list[str]:
        """The generated function's body.

        Blocks become arms ``if b == <position>:`` in reverse postorder,
        so every edge but a loop's back edge jumps forward: a forward
        jump sets ``b`` and falls through the arms in between, a
        backward jump sets ``b`` and restarts (``continue``) a
        ``while True`` that opens at the first arm any backward jump
        targets.  Arms before that run at most once, straight-line; so
        does the entry block, which needs no test unless something
        jumps to it."""
        blocks = self.fn.blocks
        if self._n_phis(blocks[0]):
            # Entering a function has no predecessor edge.
            return [f"raise KeyError({'phi has no incoming edge from None'!r})"]
        succs = [self._successors(b) for b in blocks]
        order = self._reverse_postorder(succs)
        self.pos = {bi: p for p, bi in enumerate(order)}
        back = [self.pos[j] for i, s in enumerate(succs) for j in s
                if self.pos[j] <= self.pos[i]]
        loop_at = min(back, default=len(blocks))
        # Emit in block order: guard-site ordinals follow it.
        arms: dict[int, list[str]] = {}
        for bi in range(len(blocks)):
            arms[self.pos[bi]] = arm = []
            self._emit_block(bi, arm)
        out: list[str] = []
        if loop_at == 0:
            out.append("b = 0")
        else:
            out.extend(arms[0])
        indent = ""
        for p in range(1 if loop_at else 0, len(blocks)):
            if p == loop_at:
                out.append("while True:")
                indent = "    "
            out.append(f"{indent}if b == {p}:")
            out.extend(f"{indent}    {line}" for line in arms[p])
        return out

    @staticmethod
    def _n_phis(block) -> int:
        n = 0
        insts = block.instructions
        while n < len(insts) and type(insts[n]) is Phi:
            n += 1
        return n

    def _emit_block(self, bi: int, out: list[str]) -> None:
        """Emit block ``bi``'s body (its leading phis are copied on the
        incoming edges instead; a phi later in the block is an execution
        error, matching the interpreter)."""
        block = self.fn.blocks[bi]
        insts = block.instructions
        for inst in insts[self._n_phis(block):]:
            kind = type(inst)
            if kind is Br or kind is Ret or kind is Switch:
                self._emit_terminator(inst, bi, out)
                return
            if kind is Unreachable:
                self._charge(inst, out)
                self._flush(out)
                msg = (
                    f"module {self.module.name}: reached 'unreachable' "
                    f"in @{self.fn.name}"
                )
                out.append(f"E.kernel.panic({msg!r})")
                return
            self._emit_step(inst, out)
        # Falling off a block is an execution error, not an instruction
        # — nothing more is charged.
        self._flush(out)
        msg = f"block {block.name} in @{self.fn.name} fell through"
        out.append(f"raise IE({msg!r})")

    # -- charging ----------------------------------------------------------

    def _charge(self, inst, out: list[str], *, op_cost: bool = True) -> None:
        """Charge ``inst`` like the interpreter: one executed
        instruction, plus (unless ``op_cost`` is false, for guard calls)
        one timed instruction at the machine's cost for its opcode,
        resolved at translate time (``repr`` of a float round-trips
        exactly).  The charge stays pending until the next
        :meth:`_flush`, except under a profiler, which observes every
        instruction."""
        self._steps += 1
        if not op_cost:
            return
        timing = self.timing
        cost = 0.0
        if timing is not None:
            cost = timing.machine.op_cost(inst.opcode)
            self._insts += 1
            self._cycles.append(repr(cost))
        if self.profiler is not None:
            self._flush(out)
            out.append(f"P.on_instruction({inst.opcode!r}, {cost!r})")

    def _flush(self, out: list[str]) -> None:
        """Store the pending charges.  Called before anything that can
        run other code or raise, so every observer sees the
        interpreter's counters; the float additions keep the
        interpreter's order (left-associated, one per instruction)."""
        if self._insts:
            out.append(f"T.instructions += {self._insts}")
        if self._cycles:
            out.append(f"T.cycles = T.cycles + {' + '.join(self._cycles)}")
        if self._steps:
            out.append(f"E.instructions_executed += {self._steps}")
        self._insts = 0
        self._cycles = []
        self._steps = 0

    def _emit_site(self, inst, core, args: list[str],
                   out: list[str]) -> None:
        """Store the pending charges, then call a per-site closure with
        the operand values, assigning its result to ``inst``'s local
        unless the instruction is void."""
        self._flush(out)
        call = f"{self._bind('C', core)}({', '.join(args)})"
        if inst.type.is_void:
            out.append(call)
        else:
            out.append(f"{self.names[inst]} = {call}")

    # -- straight-line steps -----------------------------------------------

    _INLINE_INT_OPS = frozenset(
        ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
    )

    def _emit_step(self, inst, out: list[str]) -> None:
        kind = type(inst)
        if kind is Call and (inst.is_guard
                             or inst.callee.name == abi.GUARD_SYMBOL):
            # Guards the guard pass inserted bypass add_op/profiler
            # (charged through the guard cost only); a call to the guard
            # symbol it did not insert is also charged as a call — both
            # like the interpreter.
            self._charge(inst, out, op_cost=not inst.is_guard)
            if id(inst) in self.module.elided_guards:
                # Statically proven in-policy at insmod (-O3): emit no
                # code at all.  The ordinal still advances so guard-site
                # IDs stay aligned with the interpreter's walk, and the
                # missing line changes the source text, so the
                # process-global translation cache can never serve an
                # elided body to an unverified module.
                self._guard_ordinal += 1
                return
            args = [self._src(a) for a in inst.args[:3]]
            self._emit_site(inst, self._guard_core(inst), args, out)
            return
        self._charge(inst, out)
        if kind is BinOp:
            if (isinstance(inst.type, IntType)
                    and inst.op in self._INLINE_INT_OPS):
                self._emit_int_binop(inst, out)
                return
            # Division (panic path) and float arithmetic stay closures.
            args = [self._src(inst.lhs), self._src(inst.rhs)]
            self._emit_site(inst, self._binop_core(inst), args, out)
        elif kind is ICmp:
            self._emit_icmp(inst, out)
        elif kind is Cast:
            self._emit_cast(inst, out)
        elif kind is Gep:
            self._emit_gep(inst, out)
        elif kind is Select:
            c, t, f = (self._src(v) for v in inst.operands[:3])
            out.append(f"{self.names[inst]} = {t} if {c} else {f}")
        elif kind is Load:
            args = [self._src(inst.pointer)]
            self._emit_site(inst, self._load_core(inst), args, out)
        elif kind is Store:
            args = [self._src(inst.pointer), self._src(inst.value)]
            self._emit_site(inst, self._store_core(inst), args, out)
        elif kind is Call:
            args = [self._src(a) for a in inst.args]
            self._emit_site(inst, self._call_core(inst), args, out)
        elif kind is Alloca:
            self._emit_site(inst, self._alloca_core(inst), [], out)
        elif kind is FCmp:
            args = [self._src(v) for v in inst.operands[:2]]
            self._emit_site(inst, self._fcmp_core(inst), args, out)
        elif kind is InlineAsm:
            self._flush(out)
            msg = (
                f"module {self.module.name}: executed inline assembly "
                "(should have been rejected at load time)"
            )
            out.append(f"E.kernel.panic({msg!r})")
        else:
            # Misplaced phi or unknown opcode: fail at execution time
            # like the interpreter's exhaustive dispatch.
            self._flush(out)
            out.append(f"raise IE({f'cannot execute {inst.opcode}'!r})")

    # -- inline integer arithmetic -----------------------------------------

    def _emit_int_binop(self, inst: BinOp, out: list[str]) -> None:
        a = self._src(inst.lhs)
        b = self._src(inst.rhs)
        t = inst.type
        s = self.names[inst]
        op = inst.op
        mask = t.max_unsigned
        bits = t.bits
        if op == "add":
            out.append(f"{s} = ({a} + {b}) & {mask}")
        elif op == "sub":
            out.append(f"{s} = ({a} - {b}) & {mask}")
        elif op == "mul":
            out.append(f"{s} = ({a} * {b}) & {mask}")
        elif op == "and":
            out.append(f"{s} = {a} & {b}")
        elif op == "or":
            out.append(f"{s} = {a} | {b}")
        elif op == "xor":
            out.append(f"{s} = {a} ^ {b}")
        elif op == "shl":
            out.append(f"{s} = ({a} << ({b} % {bits})) & {mask}")
        elif op == "lshr":
            out.append(f"{s} = {a} >> ({b} % {bits})")
        elif bits > 1:  # ashr: ``to_signed`` inlined (mask, bias, wrap)
            out.append(f"x = {a} & {mask}")
            out.append(f"if x > {t.max_signed}:")
            out.append(f"    x -= {1 << bits}")
            out.append(f"{s} = (x >> ({b} % {bits})) & {mask}")
        else:  # ashr on i1: no negative range
            out.append(f"{s} = ({a} & 1) >> ({b} % 1)")

    _CMP_SRC = {
        "eq": "==", "ne": "!=",
        "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
        "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    }

    _SIGNED_PREDS = frozenset(("slt", "sle", "sgt", "sge"))

    def _signed(self, v, t: IntType, tmp: str, out: list[str]) -> str:
        """Source for ``t.to_signed(v)``: a literal folded at translate
        time for a constant operand, else ``tmp`` computed inline (mask,
        then bias down past the sign bit)."""
        c = self._const(v)
        if type(c) is int and type(v) is not GlobalVariable:
            c = t.to_signed(c)
            return repr(c) if c >= 0 else f"({c!r})"
        out.append(f"{tmp} = {self._src(v)} & {t.max_unsigned}")
        out.append(f"if {tmp} > {t.max_signed}:")
        out.append(f"    {tmp} -= {1 << t.bits}")
        return tmp

    def _emit_icmp(self, inst: ICmp, out: list[str]) -> None:
        s = self.names[inst]
        c = self._CMP_SRC[inst.pred]
        t = inst.lhs.type
        if inst.pred in self._SIGNED_PREDS and not isinstance(t, PointerType):
            assert isinstance(t, IntType)
            if t.bits > 1:
                x = self._signed(inst.lhs, t, "x", out)
                y = self._signed(inst.rhs, t, "y", out)
                out.append(f"{s} = 1 if {x} {c} {y} else 0")
            else:  # i1 has no negative range: raw compare
                a, b = self._src(inst.lhs), self._src(inst.rhs)
                out.append(f"{s} = 1 if ({a} & 1) {c} ({b} & 1) else 0")
        else:
            a, b = self._src(inst.lhs), self._src(inst.rhs)
            out.append(f"{s} = 1 if {a} {c} {b} else 0")

    def _emit_cast(self, inst: Cast, out: list[str]) -> None:
        op = inst.op
        s = self.names[inst]
        if op in ("sitofp", "fptosi", "fptrunc"):
            # Float conversions (f32 narrowing via struct) stay closures.
            args = [self._src(inst.value)]
            self._emit_site(inst, self._cast_core(inst), args, out)
            return
        if op in ("bitcast", "inttoptr", "ptrtoint", "zext", "fpext"):
            out.append(f"{s} = {self._src(inst.value)}")
        elif op == "trunc":
            assert isinstance(inst.type, IntType)
            v = self._src(inst.value)
            out.append(f"{s} = {v} & {inst.type.max_unsigned}")
        elif op == "sext":
            src = inst.value.type
            t = inst.type
            assert isinstance(src, IntType) and isinstance(t, IntType)
            c = self._const(inst.value)
            if type(c) is int and type(inst.value) is not GlobalVariable:
                out.append(f"{s} = {t.wrap(src.to_signed(c))}")
            elif src.bits > 1:
                out.append(f"x = {self._src(inst.value)} & {src.max_unsigned}")
                out.append(
                    f"{s} = ((x - {1 << src.bits}) & {t.max_unsigned})"
                    f" if x > {src.max_signed} else x"
                )
            else:  # i1 has no negative range: sext == zext
                out.append(f"{s} = {self._src(inst.value)} & 1")
        else:  # pragma: no cover - verifier rejects other casts
            raise InterpreterError(f"bad cast {op}")

    def _emit_gep(self, inst: Gep, out: list[str]) -> None:
        s = self.names[inst]
        iv = self._const(inst.index)
        if iv is not None:
            # Constant index: fold the whole displacement (off a global,
            # into one bound address, so the hot path stays one load).
            delta = abi.to_signed64(iv) * inst.scale + inst.displacement
            if type(inst.base) is GlobalVariable:
                out.append(f"{s} = {self._global(inst.base, delta)}")
            else:
                base = self._src(inst.base)
                out.append(f"{s} = ({base} + ({delta})) & {_MASK64}")
        else:
            base = self._src(inst.base)
            # ``abi.to_signed64`` inlined (bias only — values are already
            # width-masked).
            out.append(f"x = {self.names[inst.index]}")
            out.append(f"if x > {0x7FFFFFFFFFFFFFFF}:")
            out.append(f"    x -= {1 << 64}")
            out.append(
                f"{s} = ({base} + x * {inst.scale}"
                f" + ({inst.displacement})) & {_MASK64}"
            )

    # -- arithmetic --------------------------------------------------------

    def _binop_core(self, inst: BinOp):
        """Closure builder for the binops codegen doesn't inline:
        division (panic-on-zero path) and float arithmetic."""
        op = inst.op
        t = inst.type
        if isinstance(t, FloatType):
            return self._float_binop_core(inst)
        assert isinstance(t, IntType)
        if op not in ("sdiv", "udiv", "srem", "urem"):  # pragma: no cover
            raise InterpreterError(f"bad int op {op}")
        eng = self.engine
        ts, wrap = t.to_signed, t.wrap
        msg = f"module {self.module.name}: divide error ({op} by zero)"
        if op == "sdiv":
            def core(a, b, _ts=ts, _w=wrap, _e=eng, _m=msg):
                sa, sb = _ts(a), _ts(b)
                if sb == 0:
                    _e.kernel.panic(_m)
                return _w(int(sa / sb))
        elif op == "udiv":
            def core(a, b, _e=eng, _m=msg):
                if b == 0:
                    _e.kernel.panic(_m)
                return a // b
        elif op == "srem":
            def core(a, b, _ts=ts, _w=wrap, _e=eng, _m=msg):
                sa, sb = _ts(a), _ts(b)
                if sb == 0:
                    _e.kernel.panic(_m)
                return _w(sa - int(sa / sb) * sb)
        else:  # urem
            def core(a, b, _e=eng, _m=msg):
                if b == 0:
                    _e.kernel.panic(_m)
                return a % b
        return core

    def _float_binop_core(self, inst: BinOp):
        op = inst.op
        narrow = inst.type.bits == 32
        if op not in ("fadd", "fsub", "fmul", "fdiv"):  # pragma: no cover
            raise InterpreterError(f"bad float op {op}")

        def core(a, b, _op=op, _n=narrow):
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
            return r

        return core

    def _fcmp_core(self, inst: FCmp):
        import operator as _op

        cmp_fn = {
            "oeq": _op.eq, "one": _op.ne, "olt": _op.lt,
            "ole": _op.le, "ogt": _op.gt, "oge": _op.ge,
        }[inst.pred]

        def core(a, b, _c=cmp_fn):
            if a != a or b != b:  # NaN: ordered predicates are all false
                return 0
            return 1 if _c(a, b) else 0

        return core

    def _cast_core(self, inst: Cast):
        """Closure builder for the casts codegen doesn't inline (float
        conversions; everything else is emitted as source)."""
        op = inst.op
        t = inst.type
        if op == "sitofp":
            src = inst.value.type
            assert isinstance(src, IntType)
            ts = src.to_signed
            narrow = isinstance(t, FloatType) and t.bits == 32

            def core(v, _ts=ts, _n=narrow):
                r = float(_ts(v))
                if _n:
                    r = _F32.unpack(_F32.pack(r))[0]
                return r
        elif op == "fptosi":
            assert isinstance(t, IntType)
            wrap = t.wrap

            def core(v, _w=wrap):
                return _w(int(v))
        elif op == "fptrunc":
            def core(v):
                return _F32.unpack(_F32.pack(v))[0]
        else:  # pragma: no cover - verifier rejects other casts
            raise InterpreterError(f"bad cast {op}")
        return core

    def _alloca_core(self, inst: Alloca):
        size = inst.size_bytes
        align_mask = ~(max(inst.allocated_type.align_bytes(), 8) - 1)
        eng = self.engine
        kbase = layout.KSTACK_BASE

        def core(_sz=size, _am=align_mask, _e=eng, _kb=kbase):
            top = (_e._stack_top - _sz) & _am
            if top < _kb:
                _e.kernel.panic("kernel stack exhausted")
            _e._stack_top = top
            return top

        return core

    # -- memory ------------------------------------------------------------

    def _load_core(self, inst: Load):
        t = inst.type
        timing = self.timing
        mem = self.engine.kernel.address_space
        find = mem.find
        if isinstance(t, FloatType):
            reader = mem.read_f32 if t.bits == 32 else mem.read_f64
            if timing is not None:
                mrc = timing.machine.mmio_read_cycles

                def core(addr, _t=timing, _f=find, _r=reader, _mrc=mrc):
                    _t.loads += 1
                    m = _f(addr)
                    if m is not None and m.device is not None:
                        _t.mmio_reads += 1
                        _t.cycles += _mrc
                    return _r(addr)
                return core
            return reader
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

            def core(addr, _z=size, _t=timing, _f=find, _p=pages,
                     _rr=ram_read, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _mrc=mrc,
                     _memo=memo, _a=mem):
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
                        return (0 if page is None else int.from_bytes(
                            page[off:off + _z], "little"))
                    return int.from_bytes(_rr(phys, _z), "little")
                m = _f(addr)
                if m is not None:
                    dev = m.device
                    if dev is not None:
                        _t.mmio_reads += 1
                        _t.cycles += _mrc
                        if addr + _z > m.base + m.size:
                            raise MemoryFault(addr, _z, False, "no mapping")
                        return int.from_bytes(
                            dev.mmio_read(addr - m.base, _z)
                            .to_bytes(_z, "little"), "little")
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
                            return (0 if page is None else int.from_bytes(
                                page[off:off + _z], "little"))
                        return int.from_bytes(_rr(phys, _z), "little")
                raise MemoryFault(addr, _z, False, "no mapping")
        else:
            def core(addr, _z=size, _f=find, _p=pages,
                     _rr=ram_read, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _memo=memo, _a=mem):
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
                        return (0 if page is None else int.from_bytes(
                            page[off:off + _z], "little"))
                    return int.from_bytes(_rr(phys, _z), "little")
                m = _f(addr)
                if m is not None:
                    if m.device is not None:
                        if addr + _z > m.base + m.size:
                            raise MemoryFault(addr, _z, False, "no mapping")
                        return int.from_bytes(
                            m.device.mmio_read(addr - m.base, _z)
                            .to_bytes(_z, "little"), "little")
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
                            return (0 if page is None else int.from_bytes(
                                page[off:off + _z], "little"))
                        return int.from_bytes(_rr(phys, _z), "little")
                raise MemoryFault(addr, _z, False, "no mapping")
        return core

    def _store_core(self, inst: Store):
        t = inst.value.type
        timing = self.timing
        mem = self.engine.kernel.address_space
        find = mem.find
        if isinstance(t, FloatType):
            writer = mem.write_f32 if t.bits == 32 else mem.write_f64
            if timing is not None:
                mwc = timing.machine.mmio_write_cycles

                def core(addr, value, _t=timing, _f=find, _w=writer,
                         _mwc=mwc):
                    _t.stores += 1
                    m = _f(addr)
                    if m is not None and m.device is not None:
                        _t.mmio_writes += 1
                        _t.cycles += _mwc
                    _w(addr, value)
                return core
            return writer
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

            def core(addr, value, _z=size, _k=mask, _t=timing, _f=find,
                     _p=pages, _rw=ram_write, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _mwc=mwc,
                     _memo=memo, _a=mem):
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
            def core(addr, value, _z=size, _k=mask, _f=find, _p=pages,
                     _rw=ram_write, _rs=ram_size, _ps=page_size,
                     _sh=page_shift, _om=off_mask, _memo=memo, _a=mem):
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
        callee = inst.callee
        if not callee.is_declaration:
            # Same-module direct call: skip the ``_dispatch_call`` frame.
            if timing is not None:
                def core(*args, _e=eng, _m=module, _fn=callee, _t=timing):
                    _t.calls += 1
                    return _e._exec_function(_m, _fn, args)
            else:
                def core(*args, _e=eng, _m=module, _fn=callee):
                    return _e._exec_function(_m, _fn, args)
            return core
        # Declaration: the linked native is the common case — inline it
        # (with the interpreter's int-return normalization); symbols that
        # are unlinked or IR-owned fall back to ``_dispatch_call``, which
        # re-resolves and keeps the error/exotic paths in one place.
        cname = callee.name
        imports = module.imports
        rt = callee.function_type.ret
        rmask = rt.max_unsigned if isinstance(rt, IntType) else None

        def core(*args, _e=eng, _i=inst, _m=module, _imp=imports, _n=cname,
                 _t=timing, _k=rmask):
            sym = _imp.get(_n)
            if sym is None or sym.native is None:
                return _e._dispatch_call(_i, _m, args)
            if _t is not None:
                _t.calls += 1
            _e.current_module = _m
            ret = sym.native(_e, *args)
            if _k is not None and isinstance(ret, int):
                ret &= _k
            return ret

        return core

    def _guard_core(self, inst: Call):
        """Guard calls bypass add_op/profiler (charged via ``add_guard``
        only, like the interpreter) — the emitter charges no opcode cost.

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
        if self.tracer is not None:
            # Traced translation: the static key is the translation
            # itself — these closures exist only while a tracer is
            # attached; untraced translations carry no trace code at all.
            return self._traced_guard_core(inst, ordinal)
        if timing is not None:
            gb = timing.machine.guard_base_cycles
            ge = timing.machine.guard_entry_cycles
            if prof is None:
                def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                         _g=gsym, _t=timing, _gb=gb, _ge=ge):
                    sym = _imp.get(_g)
                    if sym is None or sym.native is None:
                        return _e._dispatch_guard(_m, a, s, f)
                    _e.guard_checks += 1
                    n = int(sym.native(_e, a, s, f, _n) or 0)
                    _t.guards += 1
                    _t.guard_entries_scanned += n
                    _t.cycles += _gb + _ge * n
            else:
                def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                         _g=gsym, _t=timing, _gb=gb, _ge=ge, _p=prof):
                    sym = _imp.get(_g)
                    if sym is None or sym.native is None:
                        return _e._dispatch_guard(_m, a, s, f)
                    _e.guard_checks += 1
                    n = int(sym.native(_e, a, s, f, _n) or 0)
                    cost = _gb + _ge * n
                    _t.guards += 1
                    _t.guard_entries_scanned += n
                    _t.cycles += cost
                    _p.on_guard(a, s, f, cost)
        elif prof is None:
            def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym):
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    return _e._dispatch_guard(_m, a, s, f)
                _e.guard_checks += 1
                sym.native(_e, a, s, f, _n)
        else:
            def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _p=prof):
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    return _e._dispatch_guard(_m, a, s, f)
                _e.guard_checks += 1
                sym.native(_e, a, s, f, _n)
                _p.on_guard(a, s, f, 0.0)
        return core

    def _traced_guard_core(self, inst: Call, ordinal: int):
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

            def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _t=timing, _gb=gb, _ge=ge, _p=prof,
                     _tr=tracer, _site=site, _i=inst):
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    return _e._dispatch_guard(_m, a, s, f, _i)
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
            def core(a, s, f, _e=eng, _m=module, _imp=imports, _n=mname,
                     _g=gsym, _p=prof, _tr=tracer, _site=site, _i=inst):
                sym = _imp.get(_g)
                if sym is None or sym.native is None:
                    return _e._dispatch_guard(_m, a, s, f, _i)
                _e.guard_checks += 1
                n = int(sym.native(_e, a, s, f, _n) or 0)
                if _p is not None:
                    _p.on_guard(a, s, f, 0.0)
                _tr.on_guard(_site, a, s, f, n, 0.0)
        return core

    # -- terminators and edges ---------------------------------------------

    def _emit_terminator(self, inst, bi: int, out: list[str]) -> None:
        """Emit the charged terminator: store every pending charge, then
        transfer control (phi copies ride on the edges)."""
        self._charge(inst, out)
        kind = type(inst)
        if kind is Ret:
            self._flush(out)
            if inst.value is None:
                out.append("return None")
            else:
                out.append(f"return {self._src(inst.value)}")
            return
        if kind is Br and not inst.is_conditional:
            self._emit_edge(bi, self.block_index[inst.targets[0]], out)
            return
        self._flush(out)
        if kind is Br:
            c = self._src(inst.operands[0])
            ti = self.block_index[inst.targets[0]]
            fi = self.block_index[inst.targets[1]]
            then: list[str] = []
            other: list[str] = []
            self._emit_edge(bi, ti, then)
            self._emit_edge(bi, fi, other)
            pt, pf = self.pos[ti], self.pos[fi]
            if then == [f"b = {pt}"] and other == [f"b = {pf}"]:
                out.append(f"b = {pt} if {c} else {pf}")
                return
            out.append(f"if {c}:")
            out.extend("    " + line for line in then)
            out.append("else:")
            out.extend("    " + line for line in other)
            return
        assert kind is Switch
        v = self._src(inst.operands[0])
        # First matching case wins, like the interpreter's linear scan:
        # keep only the first target for duplicated case values.
        table: dict[int, int] = {}
        for cv_, target in inst.cases:
            if cv_ not in table:
                table[cv_] = self.pos[self.block_index[target]]
        default = self.pos[self.block_index[inst.default]]
        out.append(f"b = {self._bind('TBL', table)}.get({v}, {default})")
        test = "if"
        for t in dict.fromkeys([t for _, t in inst.cases] + [inst.default]):
            if self._n_phis(t):
                ti = self.block_index[t]
                edge: list[str] = []
                self._emit_edge(bi, ti, edge, jump=False)
                out.append(f"{test} b == {self.pos[ti]}:")
                out.extend("    " + line for line in edge)
                test = "elif"
        if min([*table.values(), default]) <= self.pos[bi]:
            out.append("continue")

    def _emit_edge(self, bi: int, ti: int, out: list[str], *,
                   jump: bool = True) -> None:
        """Take the edge from block ``bi`` to block ``ti``: charge and
        copy ``ti``'s phis for this edge, then (if ``jump``) set the
        block index and, for a backward edge, restart the dispatch."""
        target = self.fn.blocks[ti]
        phis = target.instructions[:self._n_phis(target)]
        srcs = []
        pred = self.fn.blocks[bi]
        for phi in phis:
            # First matching edge wins, like ``incoming_for``.
            value = next((v for v, p in phi.incoming if p is pred), None)
            if value is None:
                # Some phi lacks this edge: taking it is a KeyError at
                # runtime, after the terminator's charge, same as the
                # interpreter.
                self._flush(out)
                msg = f"phi has no incoming edge from {pred.name}"
                out.append(f"raise KeyError({msg!r})")
                return
            srcs.append(self._src(value))
        if phis and self.timing is not None:
            self._insts += len(phis)
        self._flush(out)
        if phis:
            # Phis read pre-transfer values: one parallel assignment.
            dsts = ", ".join(self.names[p] for p in phis)
            out.append(f"{dsts} = {', '.join(srcs)}")
        if jump:
            out.append(f"b = {self.pos[ti]}")
            if self.pos[ti] <= self.pos[bi]:
                out.append("continue")


__all__ = ["CompiledEngine", "TRANSLATION_CACHE", "translation_cache_stats"]
