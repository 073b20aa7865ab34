"""The process-global translation code cache (``TRANSLATION_CACHE``).

The compiled engine's generated source is position-independent: global
addresses are bound per translation when the cached factory is called,
never written into the source.  So a module reloaded at a new base
prints the same source and rehydrates the cached code object (one per
IR function), while still reading and writing its *new* globals.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem
from repro.e1000e import DRIVER_NAME as NET, DRIVER_SOURCE as NET_SRC
from repro.kernel import Kernel, MemoryFault
from repro.policy import CaratPolicyModule, PolicyManager
from repro.vblk import DRIVER_NAME as BLK, DRIVER_SOURCE as BLK_SRC
from repro.vm.compiled import TRANSLATION_CACHE


def _compile(source, name="pic"):
    return compile_module(
        source, CompileOptions(module_name=name, protect=False)
    )


def _code(kernel, loaded, fn_name):
    """The code object of ``fn_name``'s translation."""
    entry = loaded.translations[kernel.vm][loaded.function(fn_name)]
    return entry.run.__code__


def _traffic(system):
    if system.config.driver == "e1000e":
        system.blast(size=128, count=16)
    else:
        system.blkblast(count=16)


def _unload(system):
    if system.netdev is not None:
        system.netdev.remove()
    if system.blkdev is not None:
        system.blkdev.remove()
    system.kernel.rmmod(system.driver_name)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("driver", ["e1000e", "vblk"])
def test_driver_reload_adds_no_misses(driver, level):
    system = CaratKopSystem(machine="r415", driver=driver, opt_level=level)
    _traffic(system)
    _unload(system)
    old_base = system.driver.base
    vm = system.kernel.vm
    misses = TRANSLATION_CACHE.misses
    engine_misses = vm.translation_cache_misses
    hits = vm.translation_cache_hits
    system.reload_driver()
    if level == 3:
        assert system.driver.verify_state == "verified"
        assert system.driver.elided_guards
    _traffic(system)
    _unload(system)
    assert system.driver.base != old_base
    assert TRANSLATION_CACHE.misses == misses
    assert vm.translation_cache_misses == engine_misses
    assert vm.translation_cache_hits > hits


GLOBALS_SOURCE = """
long counter;
long table[4];
__export long bump(long d) {
    counter = counter + d;
    table[2] = counter;
    return table[2];
}
__export long where(void) { return (long)&table[2]; }
"""


def test_reloaded_module_sees_its_new_base():
    kernel = Kernel(engine="compiled")
    first = kernel.insmod(_compile(GLOBALS_SOURCE))
    assert kernel.run_function(first, "bump", [5]) == 5
    assert kernel.run_function(first, "bump", [2]) == 7
    old = kernel.run_function(first, "where", [])
    assert old == first.address_of("table") + 16
    kernel.rmmod("pic")

    misses = TRANSLATION_CACHE.misses
    second = kernel.insmod(_compile(GLOBALS_SOURCE))
    assert second.base != first.base
    # Fresh initializers at the new base, not the old module's state.
    assert kernel.run_function(second, "bump", [3]) == 3
    new = kernel.run_function(second, "where", [])
    assert new == second.address_of("table") + 16 != old
    assert kernel.address_space.read_int(
        second.address_of("counter"), 8) == 3
    assert TRANSLATION_CACHE.misses == misses
    with pytest.raises(MemoryFault):
        kernel.address_space.read_bytes(old, 8)


def test_identical_source_over_different_globals_shares_code():
    # Same printed source, different globals (and layouts, so different
    # addresses): one code object, each module using its own storage.
    a = """
    long a[2];
    __export long put(long v) { a[1] = v; return (long)&a[1]; }
    __export long get(void) { return a[1]; }
    """
    b = """
    long pad[7];
    long b[2];
    __export long put(long v) { b[1] = v; return (long)&b[1]; }
    __export long get(void) { return b[1]; }
    """
    ka, kb = Kernel(engine="compiled"), Kernel(engine="compiled")
    la = ka.insmod(_compile(a, "twin"))
    lb = kb.insmod(_compile(b, "twin"))
    assert la.address_of("a") != lb.address_of("b")
    assert ka.run_function(la, "put", [5]) == la.address_of("a") + 8
    assert kb.run_function(lb, "put", [7]) == lb.address_of("b") + 8
    assert ka.run_function(la, "get", []) == 5
    assert kb.run_function(lb, "get", []) == 7
    for fn in ("put", "get"):
        assert _code(ka, la, fn) is _code(kb, lb, fn)


def _all_codes(kernel, loaded):
    """Translate every defined function; map it to its code object."""
    return {
        fn: kernel.vm._translation(loaded, fn).run.__code__
        for fn in loaded.ir.functions.values() if not fn.is_declaration
    }


def test_elided_and_demoted_bodies_never_share_code():
    system = CaratKopSystem(machine="r415", driver="e1000e", opt_level=3)
    kernel, loaded = system.kernel, system.driver
    elided = set(loaded.elided_guards)
    assert elided
    before = _all_codes(kernel, loaded)
    system.policy_manager.allow(0x3_0000_0000, 4096)  # demotes the module
    assert not loaded.elided_guards
    after = _all_codes(kernel, loaded)
    checked = 0
    for fn, old in before.items():
        if any(id(inst) in elided
               for block in fn.blocks for inst in block.instructions):
            assert old is not after[fn] and old != after[fn]
            checked += 1
    assert checked


def test_rmmod_releases_ir_and_translations():
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(_compile(GLOBALS_SOURCE))
    kernel.run_function(loaded, "bump", [1])
    ir = weakref.ref(loaded.ir)
    kernel.rmmod("pic")
    assert not loaded.translations
    del loaded
    gc.collect()
    assert ir() is None


def test_rmmod_never_creates_an_engine():
    kernel = Kernel(engine="compiled")
    kernel.insmod(_compile("__export long f(void) { return 1; }"))
    kernel.rmmod("pic")
    assert kernel._vm is None


def test_rmmod_returns_module_pages():
    kernel = Kernel(engine="compiled")
    CaratPolicyModule(kernel).install()
    PolicyManager(kernel).install_two_region_policy()
    baseline = kernel.page_allocator.allocated_pages
    for _ in range(3):
        for name, source in ((NET, NET_SRC), (BLK, BLK_SRC)):
            kernel.insmod(compile_module(
                source, CompileOptions(module_name=name, protect=True)))
            assert kernel.page_allocator.allocated_pages > baseline
            kernel.rmmod(name)
            assert kernel.page_allocator.allocated_pages == baseline
