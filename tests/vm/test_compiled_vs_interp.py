"""Differential tests: the compiled engine against the reference interpreter.

The compiled engine's contract is *bit-identical* observable behaviour:
return values, memory, cycle accounting (float addition must not be
reassociated), guard statistics, profiler traces, and dmesg — across
normal execution and panics.  Every test here runs the same workload
under both engines and compares the full observable state.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import Kernel
from repro.kernel.panic import KernelPanic
from repro.vm import Profiler, get_machine

# ---------------------------------------------------------------------------
# mini-C program bank: each entry is (source, [(fn, args), ...]) and is run
# identically under both engines.

U64 = (1 << 64) - 1

PROGRAMS = [
    # arithmetic breadth: wrap, signed/unsigned div/rem, shifts, compares
    (
        """
        __export long mix(long a, long b) {
            long s = a + b * 3 - (a ^ b);
            s = s | (a & b);
            return (s << 2) >> 1;
        }
        __export long sdivrem(long a, long b) { return a / b + a % b; }
        __export unsigned long udivrem(unsigned long a, unsigned long b) {
            return a / b + a % b;
        }
        __export int cmps(int a, int b) {
            return (a < b) + (a <= b) * 2 + (a > b) * 4 + (a >= b) * 8
                 + (a == b) * 16 + (a != b) * 32;
        }
        __export unsigned int ucmp(unsigned int a, unsigned int b) {
            return (a < b) + (a > b) * 2;
        }
        __export int narrow(int a) { return a + 1; }
        __export int sar(int a) { return a >> 3; }
        """,
        [
            ("mix", (7, 3)),
            ("mix", ((-9) % (1 << 64), 1234567)),
            ("sdivrem", ((-7) % (1 << 64), 2)),
            ("sdivrem", (7, (-2) % (1 << 64))),
            ("udivrem", ((1 << 64) - 8, 3)),
            ("cmps", ((-1) % (1 << 32), 1)),
            ("cmps", (5, 5)),
            ("ucmp", (0xFFFFFFFF, 1)),
            ("narrow", (0x7FFFFFFF,)),
            ("sar", ((-64) % (1 << 32),)),
        ],
    ),
    # control flow: loops (phis), nested ifs, switch, early return
    (
        """
        __export long fib(long n) {
            long a = 0; long b = 1;
            for (long i = 0; i < n; i = i + 1) {
                long t = a + b; a = b; b = t;
            }
            return a;
        }
        __export long collatz(long n) {
            long steps = 0;
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                steps = steps + 1;
            }
            return steps;
        }
        __export int dispatch(int k) {
            switch (k) {
                case 0: return 10;
                case 1: return 20;
                case 7: return 70;
                default: return -1;
            }
        }
        """,
        [
            ("fib", (30,)),
            ("collatz", (27,)),
            ("dispatch", (0,)),
            ("dispatch", (7,)),
            ("dispatch", (42,)),
        ],
    ),
    # memory: globals, arrays, pointer arithmetic, mixed widths
    (
        """
        int counter;
        long table[16];
        __export long fill(long n) {
            for (long i = 0; i < n; i = i + 1) {
                table[i] = i * i + counter;
                counter = counter + 1;
            }
            long sum = 0;
            for (long i = 0; i < n; i = i + 1) { sum = sum + table[i]; }
            return sum;
        }
        __export int bytes(void) {
            char buf[8];
            for (int i = 0; i < 8; i = i + 1) { buf[i] = i * 31; }
            int acc = 0;
            for (int i = 0; i < 8; i = i + 1) { acc = acc + buf[i]; }
            return acc;
        }
        """,
        [("fill", (16,)), ("fill", (4,)), ("bytes", ())],
    ),
    # calls: recursion, helpers, void returns
    (
        """
        long helper(long x) { return x * 2 + 1; }
        __export long ack(long m, long n) {
            if (m == 0) { return n + 1; }
            if (n == 0) { return ack(m - 1, 1); }
            return ack(m - 1, ack(m, n - 1));
        }
        __export long chain(long x) {
            return helper(helper(helper(x)));
        }
        """,
        [("ack", (2, 3)), ("chain", (5,))],
    ),
    # floats: arithmetic, compares, conversions, f32 narrowing
    (
        """
        __export double fma(double a, double b, double c) {
            return a * b + c;
        }
        __export int fcmp(double a, double b) {
            return (a < b) + (a > b) * 2 + (a == b) * 4;
        }
        __export long roundtrip(long x) {
            double d = x;
            float f = d;
            double back = f;
            return back;
        }
        """,
        [
            ("fma", (1.5, 2.25, -0.75)),
            ("fcmp", (1.0, 2.0)),
            ("fcmp", (2.0, 2.0)),
            ("roundtrip", (123456789,)),
        ],
    ),
    # relocations: global addresses in arithmetic, folded geps, ptrtoint
    (
        """
        long hits;
        long ring[8];
        __export long push(long v) {
            ring[3] = v;
            hits = hits + 1;
            return (long)&ring[3] - (long)&hits + ring[3] + hits;
        }
        __export long slot(long i) { return (long)&ring[i] - (long)ring; }
        """,
        [("push", (9,)), ("push", (4,)), ("slot", (5,))],
    ),
    # phi shapes: a pure swap loop (the back edge's phis form a parallel
    # copy cycle), a switch whose default target begins with a phi, and
    # conditional branches whose two arms reach one phi block (through
    # arm blocks, and directly from the branching block); and natives
    # reading and advancing the cycle counter between runs of inline steps
    (
        """
        __export long swap(long a, long b, long n) {
            for (long i = 0; i < n; i = i + 1) {
                long t = a; a = b; b = t;
            }
            return a * 1000 + b;
        }
        __export long sw(int k, long x) {
            long r = x;
            long acc = 0;
            for (long i = 0; i < 4; i = i + 1) {
                switch (k + i) { case 3: r = r + 1; break; case 5: r = 2; break; }
                acc = acc + r;
            }
            return acc;
        }
        __export long arms(long c, long x) {
            long r;
            if (c > 3) { r = x * 2; } else { r = x - 5; }
            return r + 1;
        }
        __export long pick(long c, long x) {
            long r = x;
            if (c) { r = x + 9; }
            return r;
        }
        extern long get_cycles(void);
        extern void udelay(long usec);
        __export long tsc(long n) {
            long a = n * 3 + 1;
            long t0 = get_cycles();
            a = a ^ (n << 2);
            a = a + 7;
            udelay(2);
            long t1 = get_cycles();
            return (t1 - t0) * 1000 + a;
        }
        """,
        [
            ("tsc", (5,)),
            ("swap", (1, 2, 0)),
            ("swap", (1, 2, 3)),
            ("swap", (1, 2, 8)),
            ("sw", (0, 10)),
            ("sw", (2, 10)),
            ("sw", (3, 10)),
            ("sw", (9, 10)),
            ("arms", (7, 11)),
            ("arms", ((-7) % (1 << 64), 11)),
            ("pick", (0, 4)),
            ("pick", (1, 4)),
        ],
    ),
]


def _compile(source, *, protect=False, name="difftest"):
    return compile_module(
        source, CompileOptions(module_name=name, protect=protect)
    )


def _guard_stats(system):
    """Guard stats without the process-global translation-cache traffic
    (cache warmth differs between the engines by construction: the
    interpreter never compiles, and the second compiled system in a
    process hits what the first one missed)."""
    return {
        k: v for k, v in system.guard_stats().items()
        if not k.startswith("translation_")
    }


def _observe(kernel, extra=None):
    vm = kernel.vm
    state = {
        "instructions_executed": vm.instructions_executed,
        "guard_checks": vm.guard_checks,
        "timing": vm.timing.snapshot() if vm.timing is not None else None,
        "dmesg": kernel.dmesg_log,
        "panicked": kernel.panicked,
    }
    if extra:
        state.update(extra)
    return state


def _run_bank(engine, source, calls, *, machine=None, profiler=False):
    kernel = Kernel(machine=machine, engine=engine)
    prof = None
    if profiler:
        prof = Profiler()
        kernel.vm.profiler = prof
    compiled = _compile(source)
    loaded = kernel.insmod(compiled)
    results = []
    for fn, args in calls:
        results.append(kernel.run_function(loaded, fn, list(args)))
    return _observe(
        kernel,
        {
            "results": results,
            "profile": prof.report(top=50) if prof is not None else None,
        },
    )


@pytest.mark.parametrize("machine", [None, "r350", "r415"])
@pytest.mark.parametrize("bank", range(len(PROGRAMS)))
def test_program_bank_identical(bank, machine):
    source, calls = PROGRAMS[bank]
    model = get_machine(machine) if machine else None
    a = _run_bank("interp", source, calls, machine=model)
    b = _run_bank("compiled", source, calls, machine=model)
    assert a == b


def test_profiler_traces_identical():
    source, calls = PROGRAMS[1]
    model = get_machine("r415")
    a = _run_bank("interp", source, calls, machine=model, profiler=True)
    b = _run_bank("compiled", source, calls, machine=model, profiler=True)
    assert a == b
    assert a["profile"]  # the trace is non-empty, not trivially equal


# ---------------------------------------------------------------------------
# panic parity: the engines must agree on everything observable *after* an
# execution error too — message, dmesg, and instruction counts.


def _run_panicking(engine, source, fn, args):
    kernel = Kernel(machine=get_machine("r350"), engine=engine)
    loaded = kernel.insmod(_compile(source))
    try:
        kernel.run_function(loaded, fn, list(args))
        raised = None
    except KernelPanic as e:
        raised = str(e)
    return _observe(kernel, {"raised": raised})


@pytest.mark.parametrize(
    "source,fn,args",
    [
        ("__export long f(long a) { return a / 0; }", "f", (7,)),
        (
            "__export long f(long n) { return n == 0 ? 1 : f(n - 1); }",
            "f",
            (1 << 30,),  # kernel stack overflow via unbounded recursion
        ),
        (
            # divide by zero in a callee after a run of inline steps in
            # both frames, whose charges are stored only at the calls
            """
            long div(long a, long b) {
                long s = a * 3 + b;
                s = s ^ (a << 2);
                return s / b;
            }
            __export long f(long a) {
                long t = a + 1;
                t = t * 7 - 3;
                t = t | 5;
                return div(t, 0) + t;
            }
            """,
            "f",
            (9,),
        ),
    ],
)
def test_panic_parity(source, fn, args):
    a = _run_panicking("interp", source, fn, args)
    b = _run_panicking("compiled", source, fn, args)
    assert a == b
    assert a["raised"] is not None


def _run_explicit_guard(engine):
    # A call to carat_guard the guard pass did not insert: treated as a
    # guard check, but charged like an ordinary call instruction.
    system = CaratKopSystem(
        SystemConfig(machine="r350", protect=True, engine=engine)
    )
    kernel = system.kernel
    loaded = kernel.insmod(compile_module(
        """
        extern void carat_guard(long addr, long size, int flags);
        __export long f(long a) { long t = a + 1; carat_guard(a, 8, 1); return t; }
        """,
        CompileOptions(module_name="explicit", protect=False,
                       key=system.signing_key),
    ))
    before = kernel.vm.timing.snapshot()
    result = kernel.run_function(loaded, "f", [system.driver.base])
    return _observe(kernel, {
        "result": result,
        "call": kernel.vm.timing.delta_since(before),
        "guard_stats": _guard_stats(system),
    })


def test_explicit_guard_call_identical():
    a = _run_explicit_guard("interp")
    b = _run_explicit_guard("compiled")
    assert a == b
    assert a["call"]["guards"] == 1
    assert a["call"]["instructions"] == 3  # add, the call, ret


# ---------------------------------------------------------------------------
# the paper workload: the guarded e1000e driver moving real frames.  This is
# the Figure 3 hot path — RX/TX rings, MMIO, guards, the policy module.


def _blast_state(engine, *, machine, protect, count=250, size=128):
    system = CaratKopSystem(
        SystemConfig(machine=machine, protect=protect, engine=engine)
    )
    result = system.blast(size=size, count=count)
    vm = system.kernel.vm
    return _observe(
        system.kernel,
        {
            "sent": result.packets_sent,
            "errors": result.errors,
            "stalls": result.stalls,
            "total_cycles": result.total_cycles,
            "pps": result.throughput_pps,
            "guard_stats": _guard_stats(system),
        },
    )


@pytest.mark.parametrize("protect", [True, False])
@pytest.mark.parametrize("machine", ["r350", "r415"])
def test_e1000e_blast_identical(machine, protect):
    a = _blast_state("interp", machine=machine, protect=protect)
    b = _blast_state("compiled", machine=machine, protect=protect)
    assert a == b
    assert a["sent"] > 0


# ---------------------------------------------------------------------------
# eject-mode parity: a guard denial in eject mode unwinds, rolls back the
# offender, and quarantines it — the engines must agree on every observable
# *after* the ejection too: RAM contents, cycles, dmesg, guard stats, the
# module table, the quarantine list, and the journal.


def _ram_digest(kernel):
    import hashlib

    h = hashlib.sha256()
    for pfn in sorted(kernel.ram._pages):
        h.update(pfn.to_bytes(8, "little"))
        h.update(bytes(kernel.ram._pages[pfn]))
    return h.hexdigest()


EJECT_PROGRAMS = [
    # state-heavy offender: kmalloc + globals live when the guard trips
    (
        """
        extern void *kmalloc(long size, int flags);
        long *buf;
        long acc;
        int init_module(void) {
            buf = (long *)kmalloc(512, 0);
            if (buf == null) { return -1; }
            buf[0] = 99;
            acc = 7;
            return 0;
        }
        __export long poke(long addr) {
            acc = acc + 1;
            *(long *)addr = acc;
            return acc;
        }
        """,
        [("poke", (0x2000,))],
    ),
    # violation from a nested helper call: the fault unwinds two frames
    (
        """
        long depth;
        long smash(long addr) { depth = depth + 1; *(long *)addr = 1; return depth; }
        __export long outer(long addr) { depth = 10; return smash(addr); }
        """,
        [("outer", (0x3000,))],
    ),
    # a clean call after the ejection: entry refusal parity (-EACCES)
    (
        """
        __export long ok(void) { return 5; }
        __export long bad(long addr) { return *(long *)addr; }
        """,
        [("ok", ()), ("bad", (0x4000,)), ("ok", ())],
    ),
]


def _run_eject(engine, source, calls, *, machine="r350"):
    system = CaratKopSystem(SystemConfig(
        machine=machine, protect=True, engine=engine, enforce_mode="eject",
    ))
    kernel = system.kernel
    compiled = compile_module(source, CompileOptions(
        module_name="offender", key=system.signing_key))
    loaded = kernel.insmod(compiled)
    results = [kernel.run_function(loaded, fn, list(args))
               for fn, args in calls]
    return _observe(
        kernel,
        {
            "results": results,
            "ram": _ram_digest(kernel),
            "lsmod": kernel.lsmod(),
            "ejected": loaded.ejected,
            "quarantined": kernel.quarantined(),
            "journal_depth": kernel.journal.depth("offender"),
            "rollbacks": kernel.journal.rollbacks,
            "violation_faults": kernel.violation_faults,
            "entry_refusals": kernel.entry_refusals,
            "guard_stats": _guard_stats(system),
        },
    )


@pytest.mark.parametrize("machine", [None, "r350"])
@pytest.mark.parametrize("bank", range(len(EJECT_PROGRAMS)))
def test_eject_mode_identical(bank, machine):
    source, calls = EJECT_PROGRAMS[bank]
    a = _run_eject("interp", source, calls, machine=machine)
    b = _run_eject("compiled", source, calls, machine=machine)
    assert a == b
    assert a["ejected"]
    assert a["lsmod"] == ["e1000e"]
    assert a["panicked"] is None
    assert a["journal_depth"] == 0


def test_isolate_mode_identical():
    a = _run_isolate("interp")
    b = _run_isolate("compiled")
    assert a == b
    assert a["isolated"] == ["offender"]


def _run_isolate(engine):
    system = CaratKopSystem(SystemConfig(
        machine="r415", protect=True, engine=engine, enforce_mode="isolate",
    ))
    kernel = system.kernel
    compiled = compile_module(
        "__export long bad(long a) { *(long *)a = 1; return 0; }",
        CompileOptions(module_name="offender", key=system.signing_key))
    loaded = kernel.insmod(compiled)
    results = [
        kernel.run_function(loaded, "bad", [0x5000]),
        kernel.run_function(loaded, "bad", [0x5000]),  # refused: isolated
    ]
    return _observe(
        kernel,
        {
            "results": results,
            "ram": _ram_digest(kernel),
            "lsmod": kernel.lsmod(),
            "isolated": kernel.isolated_modules(),
            "entry_refusals": kernel.entry_refusals,
            "guard_stats": _guard_stats(system),
        },
    )


# ---------------------------------------------------------------------------
# translation cache behaviour


def test_translations_cached_and_invalidated():
    source, calls = PROGRAMS[0]
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(_compile(source))
    fn, args = calls[0]
    first = kernel.run_function(loaded, fn, list(args))
    store = loaded.translations[kernel.vm]
    cached = dict(store)
    assert cached  # populated by the first run
    assert kernel.run_function(loaded, fn, list(args)) == first
    assert dict(store) == cached  # reused, not retranslated
    loaded.invalidate_translations()
    assert not loaded.translations.get(kernel.vm)
    assert kernel.run_function(loaded, fn, list(args)) == first


def test_same_ir_reinsmod_uses_fresh_addresses():
    # Re-inserting the same CompiledModule yields the same IR function
    # objects at new global addresses; the L1 memo must not serve stale
    # translations for the old module instance.
    source = """
    long seed;
    __export long bump(long d) { seed = seed + d; return seed; }
    """
    compiled = _compile(source)
    kernel = Kernel(engine="compiled")
    first = kernel.insmod(compiled)
    assert kernel.run_function(first, "bump", [5]) == 5
    assert kernel.run_function(first, "bump", [2]) == 7
    kernel.rmmod(first.name)
    second = kernel.insmod(compiled)
    assert kernel.run_function(second, "bump", [3]) == 3


def _run_reload(engine, source, calls, *, machine):
    # Load, run, rmmod, and load again: the second load lands at a new
    # base and (compiled) rehydrates the first load's code objects.
    kernel = Kernel(machine=machine, engine=engine)
    results, bases = [], []
    for _ in range(2):
        loaded = kernel.insmod(_compile(source))
        bases.append(loaded.base)
        results.append([
            kernel.run_function(loaded, fn, list(args)) for fn, args in calls
        ])
        kernel.rmmod(loaded.name)
    return _observe(kernel, {"results": results, "bases": bases})


@pytest.mark.parametrize("bank", range(len(PROGRAMS)))
def test_reloaded_module_identical(bank):
    source, calls = PROGRAMS[bank]
    model = get_machine("r415")
    a = _run_reload("interp", source, calls, machine=model)
    b = _run_reload("compiled", source, calls, machine=model)
    assert a["bases"][0] != a["bases"][1]
    assert a == b
