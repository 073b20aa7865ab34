"""Module / function / basic-block containers for the IR."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .instructions import Instruction, Phi
from .types import FunctionType, IRType, PointerType, StructType
from .values import Argument, GlobalValue, GlobalVariable, Value


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    __slots__ = ("name", "instructions", "parent")

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.instructions: list[Instruction] = []
        self.parent = parent

    # -- structural helpers -------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.terminator is not None:
            raise ValueError(
                f"block {self.name} already terminated; cannot append {inst.opcode}"
            )
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert_before(self, inst: Instruction, before: Instruction) -> Instruction:
        """Insert ``inst`` immediately before ``before`` (which must be here)."""
        idx = self._index_of(before)
        inst.parent = self
        self.instructions.insert(idx, inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        idx = self._index_of(inst)
        del self.instructions[idx]
        inst.parent = None

    def _index_of(self, inst: Instruction) -> int:
        for i, x in enumerate(self.instructions):
            if x is inst:
                return i
        raise ValueError(f"instruction not in block {self.name}")

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return list(getattr(term, "targets", [])) if term is not None else []

    def phis(self) -> Iterator[Phi]:
        for inst in self.instructions:
            if isinstance(inst, Phi):
                yield inst
            else:
                break

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition or declaration.

    Declarations (``is_declaration == True``) have no blocks; they are the
    import points the kernel module linker resolves at load time.
    """

    __slots__ = ("function_type", "args", "blocks", "attributes", "_name_counter")

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Optional[Iterable[str]] = None,
        linkage: str = "internal",
    ):
        super().__init__(PointerType(function_type), name, linkage)
        self.function_type = function_type
        names = list(arg_names) if arg_names is not None else [
            f"arg{i}" for i in range(len(function_type.params))
        ]
        if len(names) != len(function_type.params):
            raise ValueError("arg_names length mismatch")
        self.args = [
            Argument(t, n, i)
            for i, (t, n) in enumerate(zip(function_type.params, names))
        ]
        self.blocks: list[BasicBlock] = []
        self.attributes: set[str] = set()
        self._name_counter = 0

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> IRType:
        return self.function_type.ret

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"@{self.name} is a declaration")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        if not name:
            name = self.unique_name("bb")
        if any(b.name == name for b in self.blocks):
            name = self.unique_name(name)
        block = BasicBlock(name, self)
        self.blocks.append(block)
        return block

    def block_named(self, name: str) -> BasicBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"@{self.name} has no block {name!r}")

    def unique_name(self, prefix: str = "t") -> str:
        self._name_counter += 1
        return f"{prefix}.{self._name_counter}"

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order (the guard pass iterates this)."""
        for block in self.blocks:
            yield from block.instructions

    def predecessors(self) -> dict[BasicBlock, list[BasicBlock]]:
        """Map each block to its CFG predecessors."""
        preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.blocks}
        for b in self.blocks:
            for s in b.successors:
                # Branches to blocks outside this function are a verifier
                # error, not a reason to crash the analysis itself.
                if s in preds:
                    preds[s].append(b)
        return preds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}>"


class Module:
    """A translation unit: globals, functions, struct types, metadata.

    ``metadata`` carries compilation facts the signer attests to — most
    importantly ``carat.guarded`` (set by the guard pass) and
    ``carat.has_inline_asm`` (set by the attestation scan).
    """

    def __init__(self, name: str):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}
        self.structs: dict[str, StructType] = {}
        self.metadata: dict[str, object] = {}
        #: Bumped whenever a pass (or any other IR surgery) rewrites the
        #: module; execution engines that cache per-function translations
        #: key their cache entries on this counter.
        self.generation = 0

    def bump_generation(self) -> int:
        """Mark the IR as changed, invalidating cached translations."""
        self.generation += 1
        return self.generation

    # -- functions ----------------------------------------------------------

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions or fn.name in self.globals:
            raise ValueError(f"duplicate symbol @{fn.name}")
        self.functions[fn.name] = fn
        return fn

    def declare_function(
        self,
        name: str,
        function_type: FunctionType,
        linkage: str = "external",
    ) -> Function:
        """Get-or-create a declaration for an external symbol."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type is not function_type:
                raise ValueError(
                    f"conflicting declaration of @{name}: "
                    f"{existing.function_type} vs {function_type}"
                )
            return existing
        fn = Function(name, function_type, linkage=linkage)
        self.functions[name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"module {self.name} has no function @{name}") from None

    # -- globals ------------------------------------------------------------

    def add_global(self, g: GlobalVariable) -> GlobalVariable:
        if g.name in self.globals or g.name in self.functions:
            raise ValueError(f"duplicate symbol @{g.name}")
        self.globals[g.name] = g
        return g

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError(f"module {self.name} has no global @{name}") from None

    # -- structs ------------------------------------------------------------

    def add_struct(self, st: StructType) -> StructType:
        existing = self.structs.get(st.name)
        if existing is not None and existing is not st:
            raise ValueError(f"conflicting struct %{st.name}")
        self.structs[st.name] = st
        return st

    # -- queries ------------------------------------------------------------

    def defined_functions(self) -> list[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def declarations(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_declaration]

    def exported_symbols(self) -> list[GlobalValue]:
        out: list[GlobalValue] = []
        for f in self.functions.values():
            if f.linkage == "exported" and not f.is_declaration:
                out.append(f)
        for g in self.globals.values():
            if g.linkage == "exported":
                out.append(g)
        return out

    def instruction_count(self) -> int:
        return sum(len(b) for f in self.defined_functions() for b in f.blocks)

    # -- copying ------------------------------------------------------------

    def clone(self) -> "Module":
        """A structurally identical copy that shares no global, function,
        argument, block or instruction with this module.  Types and
        constants are immutable and stay shared.

        One walk creates every new object and records it in a value map;
        a second fills each instruction's fields through that map, so
        forward references (phis, back edges) resolve."""
        new = Module(self.name)
        new.structs = dict(self.structs)
        new.metadata = dict(self.metadata)
        new.generation = self.generation
        vmap: dict = {}
        for name, g in self.globals.items():
            ng = GlobalVariable(g.value_type, g.name, g.initializer,
                                g.linkage, g.is_const)
            new.globals[name] = vmap[g] = ng
        pending: list[tuple[Instruction, Instruction]] = []
        for name, fn in self.functions.items():
            nf = Function(fn.name, fn.function_type,
                          [a.name for a in fn.args], fn.linkage)
            nf.attributes = set(fn.attributes)
            nf._name_counter = fn._name_counter
            new.functions[name] = vmap[fn] = nf
            vmap.update(zip(fn.args, nf.args))
            for b in fn.blocks:
                nb = BasicBlock(b.name, nf)
                nf.blocks.append(nb)
                vmap[b] = nb
                for inst in b.instructions:
                    ni = object.__new__(type(inst))
                    ni.parent = nb
                    nb.instructions.append(ni)
                    vmap[inst] = ni
                    pending.append((inst, ni))

        def remap(v):
            if isinstance(v, (Value, BasicBlock)):
                return vmap.get(v, v)
            if isinstance(v, list):
                return [remap(x) for x in v]
            if isinstance(v, tuple):
                return tuple(remap(x) for x in v)
            return v

        get = vmap.get
        for inst, ni in pending:
            ni.type = inst.type
            ni.name = inst.name
            ni.operands = [get(op, op) for op in inst.operands]
            for slot in _extra_slots(type(inst)):
                setattr(ni, slot, remap(getattr(inst, slot)))
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )


#: Per instruction class, the slots :meth:`Module.clone` copies beyond
#: the four every instruction has (type, name, operands, parent).
_EXTRA_SLOTS: dict[type, tuple[str, ...]] = {}


def _extra_slots(cls: type) -> tuple[str, ...]:
    slots = _EXTRA_SLOTS.get(cls)
    if slots is None:
        slots = _EXTRA_SLOTS[cls] = tuple(
            s for k in reversed(cls.__mro__)
            for s in k.__dict__.get("__slots__", ())
            if s not in ("type", "name", "operands", "parent")
        )
    return slots


__all__ = ["BasicBlock", "Function", "Module"]
