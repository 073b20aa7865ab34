"""The IR interpreter: executes loaded kernel-module code.

Module IR runs here; core-kernel services are native Python (see
:mod:`repro.kernel.kernel`).  Guard calls take a dedicated fast path so
(a) the policy check itself is native, matching the paper's design where
``carat_guard`` is core-kernel code exported privately to modules, and
(b) the timing model can charge the machine-specific guard cost.

Value representation: integers are Python ints holding the *unsigned*
bit pattern of their IR type; pointers are addresses; floats are Python
floats.  All wrapping happens at operation boundaries.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from .. import abi
from ..ir import Function
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
    Value,
)
from ..kernel import layout
from ..kernel.module_loader import LoadedModule
from ..kernel.panic import KernelPanic, ViolationFault
from .machine import MachineModel
from .timing import CycleCounter

_MASK64 = (1 << 64) - 1


class InterpreterError(RuntimeError):
    """Malformed execution (not a simulated kernel fault)."""


class GuardViolation(KernelPanic):
    """A guard rejected an access: the policy module panics the kernel.

    Paper §3.1: "we currently do not cleanly handle forbidden accesses,
    and instead log that they occur and cause a kernel panic."
    """

    def __init__(self, addr: int, size: int, flags: int, detail: str = ""):
        reason = (
            f"CARAT KOP: forbidden {abi.flags_name(flags)} access to "
            f"{addr:#018x} (size {size})"
        )
        if detail:
            reason += f" [{detail}]"
        super().__init__(reason)
        self.addr = addr
        self.size = size
        self.flags = flags


class Interpreter:
    """Executes IR functions of loaded modules against the kernel."""

    def __init__(self, kernel, machine: Optional[MachineModel] = None):
        self.kernel = kernel
        self.timing: Optional[CycleCounter] = (
            CycleCounter(machine) if machine is not None else None
        )
        self._stack_top = layout.KSTACK_BASE + layout.KSTACK_SIZE
        self.max_call_depth = 64
        self._depth = 0
        # Aggregate statistics (kept even without a machine model).
        self.guard_checks = 0
        self.instructions_executed = 0
        #: The module whose code is currently executing (natives may read
        #: this to attribute an action, e.g. the intrinsic guard).
        self.current_module: Optional[LoadedModule] = None
        #: Optional execution profiler (see :mod:`repro.vm.trace`).
        self.profiler = None
        #: Optional VM tracer (see :mod:`repro.trace.vmhook`), attached by
        #: the kernel's trace subsystem while tracing is enabled.
        self.tracer = None
        trace = getattr(kernel, "trace", None)
        if trace is not None and trace.enabled:
            self.tracer = trace.vm_tracer

    # -- public entry ------------------------------------------------------------

    def call(self, module: LoadedModule, name: str, args: Sequence[int | float]):
        fn = module.function(name)
        try:
            return self._exec_function(module, fn, list(args))
        except ViolationFault as fault:
            # Tag the fault with the kernel->module entry whose dispatch
            # faulted (first catch wins — the innermost kernel entry).
            fault.note_entry(module.name, name)
            raise

    def forget_module(self, module: LoadedModule) -> None:
        """Drop engine-side state for an unloaded module (no-op here; the
        compiled engine purges its translation cache)."""

    def call_function(self, module: LoadedModule, fn: Function,
                      args: Sequence[int | float]):
        return self._exec_function(module, fn, list(args))

    # -- execution ------------------------------------------------------------------

    def _exec_function(self, module: LoadedModule, fn: Function, args: list):
        if fn.is_declaration:
            raise InterpreterError(f"cannot execute declaration @{fn.name}")
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"@{fn.name}: expected {len(fn.args)} args, got {len(args)}"
            )
        self._depth += 1
        if self._depth > self.max_call_depth:
            self._depth -= 1
            self.kernel.panic(f"kernel stack overflow in @{fn.name}")
        saved_stack = self._stack_top
        env: dict[int, object] = {}
        for a, v in zip(fn.args, args):
            env[id(a)] = v
        timing = self.timing
        mem = self.kernel.address_space
        profiler = self.profiler
        if profiler is not None:
            profiler.enter_function(fn.name)
        tracer = self.tracer
        if tracer is not None:
            tracer.enter_function(fn.name)
        try:
            block = fn.entry
            prev = None
            while True:
                insts = block.instructions
                # Phase 1: evaluate all phis against the incoming edge
                # simultaneously (they read pre-transfer values).
                n_phi = 0
                if insts and isinstance(insts[0], Phi):
                    phi_values = []
                    for inst in insts:
                        if not isinstance(inst, Phi):
                            break
                        phi_values.append(
                            self._eval(inst.incoming_for(prev), env, module)
                        )
                        n_phi += 1
                    for i in range(n_phi):
                        env[id(insts[i])] = phi_values[i]
                    if timing is not None:
                        timing.instructions += n_phi
                result = _SENTINEL
                next_block = None
                for idx in range(n_phi, len(insts)):
                    inst = insts[idx]
                    self.instructions_executed += 1
                    kind = type(inst)
                    if timing is not None and not (
                        kind is Call and inst.is_guard
                    ):
                        # Guard calls are charged through add_guard alone:
                        # the machine's guard_base_cycles already covers the
                        # (perfectly predicted) call itself.
                        timing.add_op(inst.opcode)
                    if profiler is not None and not (
                        kind is Call and inst.is_guard
                    ):
                        profiler.on_instruction(
                            inst.opcode,
                            timing.machine.op_cost(inst.opcode)
                            if timing is not None else 0.0,
                        )
                    if kind is BinOp:
                        env[id(inst)] = self._binop(inst, env, module)
                    elif kind is Load:
                        env[id(inst)] = self._load(inst, env, module, mem)
                    elif kind is Store:
                        self._store(inst, env, module, mem)
                    elif kind is Gep:
                        base = self._eval(inst.base, env, module)
                        index = abi.to_signed64(self._eval(inst.index, env, module))
                        env[id(inst)] = (
                            base + index * inst.scale + inst.displacement
                        ) & _MASK64
                    elif kind is ICmp:
                        env[id(inst)] = self._icmp(inst, env, module)
                    elif kind is Cast:
                        env[id(inst)] = self._cast(inst, env, module)
                    elif kind is Call:
                        value = self._call(inst, env, module)
                        if not inst.type.is_void:
                            env[id(inst)] = value
                    elif kind is Br:
                        if inst.is_conditional:
                            cond = self._eval(inst.operands[0], env, module)
                            next_block = inst.targets[0] if cond else inst.targets[1]
                        else:
                            next_block = inst.targets[0]
                        break
                    elif kind is Ret:
                        if inst.value is not None:
                            result = self._eval(inst.value, env, module)
                        else:
                            result = None
                        break
                    elif kind is Select:
                        cond = self._eval(inst.operands[0], env, module)
                        pick = inst.operands[1] if cond else inst.operands[2]
                        env[id(inst)] = self._eval(pick, env, module)
                    elif kind is Switch:
                        value = self._eval(inst.operands[0], env, module)
                        next_block = inst.default
                        for cv, target in inst.cases:
                            if cv == value:
                                next_block = target
                                break
                        break
                    elif kind is Alloca:
                        size = inst.size_bytes
                        align = max(inst.allocated_type.align_bytes(), 8)
                        top = (self._stack_top - size) & ~(align - 1)
                        if top < layout.KSTACK_BASE:
                            self.kernel.panic("kernel stack exhausted")
                        self._stack_top = top
                        env[id(inst)] = top
                    elif kind is FCmp:
                        env[id(inst)] = self._fcmp(inst, env, module)
                    elif kind is InlineAsm:
                        self.kernel.panic(
                            f"module {module.name}: executed inline assembly "
                            "(should have been rejected at load time)"
                        )
                    elif kind is Unreachable:
                        self.kernel.panic(
                            f"module {module.name}: reached 'unreachable' "
                            f"in @{fn.name}"
                        )
                    else:  # pragma: no cover - exhaustive above
                        raise InterpreterError(f"cannot execute {inst.opcode}")
                if result is not _SENTINEL:
                    return result
                if next_block is None:
                    raise InterpreterError(
                        f"block {block.name} in @{fn.name} fell through"
                    )
                prev = block
                block = next_block
        finally:
            self._stack_top = saved_stack
            self._depth -= 1
            if profiler is not None:
                profiler.exit_function(fn.name)
            if tracer is not None:
                tracer.exit_function(fn.name)

    # -- operand evaluation ---------------------------------------------------------

    def _eval(self, v: Value, env: dict, module: LoadedModule):
        k = type(v)
        if k is ConstantInt:
            return v.value
        if k is ConstantFloat:
            return v.value
        if k is ConstantNull or k is UndefValue:
            return 0
        if k is GlobalVariable:
            try:
                return module.global_addresses[v.name]
            except KeyError:
                raise InterpreterError(
                    f"module {module.name}: no storage for @{v.name}"
                ) from None
        if k is ConstantString:
            raise InterpreterError("string constants must live in globals")
        try:
            return env[id(v)]
        except KeyError:
            raise InterpreterError(
                f"use of undefined value %{v.name} ({v.type})"
            ) from None

    # -- memory ------------------------------------------------------------------------

    def _load(self, inst: Load, env, module, mem):
        addr = self._eval(inst.pointer, env, module)
        t = inst.type
        if self.timing is not None:
            self.timing.loads += 1
            m = mem.find(addr)
            if m is not None and m.device is not None:
                self.timing.add_mmio_read()
        if isinstance(t, FloatType):
            return mem.read_f32(addr) if t.bits == 32 else mem.read_f64(addr)
        size = t.size_bytes()
        return mem.read_int(addr, size)

    def _store(self, inst: Store, env, module, mem):
        addr = self._eval(inst.pointer, env, module)
        value = self._eval(inst.value, env, module)
        t = inst.value.type
        if self.timing is not None:
            self.timing.stores += 1
            m = mem.find(addr)
            if m is not None and m.device is not None:
                self.timing.add_mmio_write()
        if isinstance(t, FloatType):
            if t.bits == 32:
                mem.write_f32(addr, value)
            else:
                mem.write_f64(addr, value)
            return
        mem.write_int(addr, t.size_bytes(), int(value))

    # -- arithmetic ----------------------------------------------------------------------

    def _binop(self, inst: BinOp, env, module):
        a = self._eval(inst.lhs, env, module)
        b = self._eval(inst.rhs, env, module)
        op = inst.op
        t = inst.type
        if isinstance(t, FloatType):
            if op == "fadd":
                r = a + b
            elif op == "fsub":
                r = a - b
            elif op == "fmul":
                r = a * b
            elif op == "fdiv":
                if b == 0.0:
                    r = float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
                else:
                    r = a / b
            else:  # pragma: no cover
                raise InterpreterError(f"bad float op {op}")
            if t.bits == 32:
                r = struct.unpack("<f", struct.pack("<f", r))[0]
            return r
        assert isinstance(t, IntType)
        bits = t.bits
        mask = t.max_unsigned
        if op == "add":
            return (a + b) & mask
        if op == "sub":
            return (a - b) & mask
        if op == "mul":
            return (a * b) & mask
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "shl":
            return (a << (b % bits)) & mask
        if op == "lshr":
            return a >> (b % bits)
        if op == "ashr":
            return t.wrap(t.to_signed(a) >> (b % bits))
        sa, sb = t.to_signed(a), t.to_signed(b)
        if op == "sdiv":
            if sb == 0:
                self.kernel.panic(f"module {module.name}: divide error (sdiv by zero)")
            return t.wrap(int(sa / sb))
        if op == "udiv":
            if b == 0:
                self.kernel.panic(f"module {module.name}: divide error (udiv by zero)")
            return a // b
        if op == "srem":
            if sb == 0:
                self.kernel.panic(f"module {module.name}: divide error (srem by zero)")
            return t.wrap(sa - int(sa / sb) * sb)
        if op == "urem":
            if b == 0:
                self.kernel.panic(f"module {module.name}: divide error (urem by zero)")
            return a % b
        raise InterpreterError(f"bad int op {op}")  # pragma: no cover

    _ICMP = {
        "eq": lambda a, b, sa, sb: a == b,
        "ne": lambda a, b, sa, sb: a != b,
        "ult": lambda a, b, sa, sb: a < b,
        "ule": lambda a, b, sa, sb: a <= b,
        "ugt": lambda a, b, sa, sb: a > b,
        "uge": lambda a, b, sa, sb: a >= b,
        "slt": lambda a, b, sa, sb: sa < sb,
        "sle": lambda a, b, sa, sb: sa <= sb,
        "sgt": lambda a, b, sa, sb: sa > sb,
        "sge": lambda a, b, sa, sb: sa >= sb,
    }

    def _icmp(self, inst: ICmp, env, module):
        a = self._eval(inst.lhs, env, module)
        b = self._eval(inst.rhs, env, module)
        t = inst.lhs.type
        if isinstance(t, PointerType):
            sa, sb = a, b
        else:
            assert isinstance(t, IntType)
            sa, sb = t.to_signed(a), t.to_signed(b)
        return 1 if self._ICMP[inst.pred](a, b, sa, sb) else 0

    _FCMP = {
        "oeq": lambda a, b: a == b,
        "one": lambda a, b: a != b,
        "olt": lambda a, b: a < b,
        "ole": lambda a, b: a <= b,
        "ogt": lambda a, b: a > b,
        "oge": lambda a, b: a >= b,
    }

    def _fcmp(self, inst: FCmp, env, module):
        a = self._eval(inst.operands[0], env, module)
        b = self._eval(inst.operands[1], env, module)
        if a != a or b != b:  # NaN: ordered predicates are all false
            return 0
        return 1 if self._FCMP[inst.pred](a, b) else 0

    def _cast(self, inst: Cast, env, module):
        v = self._eval(inst.value, env, module)
        op = inst.op
        t = inst.type
        if op in ("bitcast", "inttoptr", "ptrtoint"):
            return v
        if op == "trunc":
            assert isinstance(t, IntType)
            return v & t.max_unsigned
        if op == "zext":
            return v
        if op == "sext":
            src = inst.value.type
            assert isinstance(src, IntType) and isinstance(t, IntType)
            return t.wrap(src.to_signed(v))
        if op == "sitofp":
            src = inst.value.type
            assert isinstance(src, IntType)
            r = float(src.to_signed(v))
            if isinstance(t, FloatType) and t.bits == 32:
                r = struct.unpack("<f", struct.pack("<f", r))[0]
            return r
        if op == "fptosi":
            assert isinstance(t, IntType)
            return t.wrap(int(v))
        if op == "fpext":
            return v
        if op == "fptrunc":
            return struct.unpack("<f", struct.pack("<f", v))[0]
        raise InterpreterError(f"bad cast {op}")  # pragma: no cover

    # -- calls --------------------------------------------------------------------------

    def _call(self, inst: Call, env, module: LoadedModule):
        callee = inst.callee
        if inst.is_guard or callee.name == abi.GUARD_SYMBOL:
            if module.elided_guards and id(inst) in module.elided_guards:
                # Statically proven in-policy at insmod (-O3): the site
                # costs nothing — no policy walk, no stats, no timing.
                return 0
            return self._guard_call(inst, env, module)
        args = [self._eval(a, env, module) for a in inst.args]
        return self._dispatch_call(inst, module, args)

    def _dispatch_call(self, inst: Call, module: LoadedModule, args: list):
        """Call dispatch after argument evaluation (shared with the
        compiled engine, which evaluates operands through register slots)."""
        callee = inst.callee
        if self.timing is not None:
            self.timing.calls += 1
        if not callee.is_declaration:
            return self._exec_function(module, callee, args)
        sym = module.imports.get(callee.name)
        if sym is None:
            sym = self.kernel.symbols.lookup(callee.name)
        if sym is None:
            raise InterpreterError(
                f"module {module.name}: call through unresolved symbol "
                f"{callee.name!r}"
            )
        if sym.is_native:
            self.current_module = module
            ret = sym.native(self, *args)
            # Normalize native integer returns to the declared IR return
            # type's unsigned representation (natives think in Python ints,
            # the VM in bit patterns).
            rt = callee.function_type.ret
            if isinstance(ret, int) and isinstance(rt, IntType):
                return rt.wrap(ret)
            return ret
        target_module = self.kernel.loader.loaded.get(sym.owner)
        if target_module is None:
            raise InterpreterError(
                f"symbol {callee.name!r} owned by unloaded module {sym.owner!r}"
            )
        assert sym.function is not None
        return self._exec_function(target_module, sym.function, args)

    def _guard_call(self, inst: Call, env, module: LoadedModule):
        addr = self._eval(inst.args[0], env, module)
        size = self._eval(inst.args[1], env, module)
        flags = self._eval(inst.args[2], env, module)
        return self._dispatch_guard(module, addr, size, flags, inst)

    def _dispatch_guard(self, module: LoadedModule, addr: int, size: int,
                        flags: int, inst: Optional[Call] = None):
        """Guard dispatch after argument evaluation (shared with the
        compiled engine): late re-link, native/IR policy, guard timing."""
        self.guard_checks += 1
        sym = module.imports.get(abi.GUARD_SYMBOL)
        if sym is None:
            # Late re-link: the policy module was swapped (paper §3.2).
            sym = self.kernel.symbols.lookup(abi.GUARD_SYMBOL)
            if sym is not None:
                module.imports[abi.GUARD_SYMBOL] = sym
        if sym is None:
            self.kernel.panic(
                f"module {module.name}: guard invoked but no policy module "
                "provides carat_guard"
            )
        if sym.is_native:
            # Guard natives return the number of region entries scanned so
            # the timing model can charge the machine-specific cost.
            entries = sym.native(self, addr, size, flags, module.name)
            n = int(entries or 0)
            cost = (
                self.timing.machine.guard_cost(n)
                if self.timing is not None else 0.0
            )
            if self.timing is not None:
                self.timing.add_guard(n)
            if self.profiler is not None:
                self.profiler.on_guard(addr, size, flags, cost)
            tracer = self.tracer
            if tracer is not None:
                site = (
                    tracer.site_for(module.name, inst)
                    if inst is not None
                    else f"{module.name}:?:g0"
                )
                tracer.on_guard(site, addr, size, flags, n, cost)
            return None
        # Policy implemented in IR (exotic, but allowed): execute it.
        target_module = self.kernel.loader.loaded.get(sym.owner)
        assert sym.function is not None and target_module is not None
        if self.timing is not None:
            self.timing.add_guard(0)
        return self._exec_function(
            target_module, sym.function, [addr, size, flags]
        )


_SENTINEL = object()

__all__ = ["GuardViolation", "Interpreter", "InterpreterError"]
