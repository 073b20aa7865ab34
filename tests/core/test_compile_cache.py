"""The content-addressed compile cache in front of ``compile_module``.

A hit must be indistinguishable from a fresh compile -- same printed
IR, same certificate payload, same signature -- while handing out IR
that shares no mutable object with the cached copy or with any other
hit.  The per-request parts (signature, certificate epoch) are minted
for each call, and insmod's own checks still run on every load.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.pipeline import (
    COMPILE_CACHE,
    COMPILE_CACHE_ENTRIES,
    CompileOptions,
    compile_module,
)
from repro.e1000e import DRIVER_NAME as NET_NAME
from repro.e1000e import DRIVER_SOURCE as NET_SOURCE
from repro.e1000e.contracts import DRIVER_CONTRACTS as NET_CONTRACTS
from repro.ir import Constant, Module
from repro.ir.printer import print_module
from repro.kernel import Kernel
from repro.minicc.parser import CParseError
from repro.passes import GuardInjectionPass
from repro.policy import CaratPolicyModule, PolicyManager
from repro.signing import SignatureError, SigningKey, verify_signature
from repro.vblk import DRIVER_NAME as BLK_NAME
from repro.vblk import DRIVER_SOURCE as BLK_SOURCE
from repro.vblk import VBLK_CONTRACTS

from tests.integration.test_opt_differential import traffic_program

DRIVERS = {
    NET_NAME: (NET_SOURCE, NET_CONTRACTS),
    BLK_NAME: (BLK_SOURCE, VBLK_CONTRACTS),
}

SMALL = """
long cells[4];
__export long run(long seed) {
    cells[0] = seed;
    cells[1] = cells[0] + 3;
    return cells[1] * 2;
}
"""


@pytest.fixture(autouse=True)
def empty_cache():
    COMPILE_CACHE.clear()
    yield
    COMPILE_CACHE.clear()


def _policy(regions: int = 64):
    kernel = Kernel()
    policy = CaratPolicyModule(kernel).install()
    manager = PolicyManager(kernel)
    manager.install_n_region_policy(regions)
    return kernel, policy, manager


def _options(name, opt_level, policy, contracts=None, key=None):
    return CompileOptions(
        module_name=name, opt_level=opt_level, key=key,
        verify_table=policy.index if opt_level >= 3 else None,
        contracts=contracts if opt_level >= 3 else None,
    )


def _objects(ir: Module) -> set[int]:
    """``id()`` of every global, function, argument, block and
    instruction in ``ir``, and of every non-constant operand."""
    ids = {id(g) for g in ir.globals.values()}
    for fn in ir.functions.values():
        ids.add(id(fn))
        ids.update(id(a) for a in fn.args)
        for block in fn.blocks:
            ids.add(id(block))
            for inst in block.instructions:
                ids.add(id(inst))
                ids.update(id(op) for op in inst.operands
                           if not isinstance(op, Constant))
    return ids


def _payload(compiled):
    cert = compiled.certificate
    return None if cert is None else cert.payload()


def _assert_same_compile(fresh, hit):
    assert print_module(hit.ir) == print_module(fresh.ir)
    assert _payload(hit) == _payload(fresh)
    assert hit.stats == fresh.stats
    assert hit.source_lines == fresh.source_lines


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_hit_matches_fresh_compile(driver, opt_level, key):
    source, contracts = DRIVERS[driver]
    _, policy, _ = _policy()
    opts = _options(driver, opt_level, policy, contracts, key)
    fresh = compile_module(source, opts)
    hit = compile_module(source, opts)
    again = compile_module(source, opts)
    assert COMPILE_CACHE.stats() == {"entries": 1, "hits": 2, "misses": 1}

    _assert_same_compile(fresh, hit)
    assert hit.signature == fresh.signature
    if opt_level >= 3:
        assert hit.certificate is not None
        assert hit.stats.guards_proven > 0
    # Every hit is its own copy: nothing shared with the cached IR, the
    # fresh compile, or the other hit.
    cached = next(iter(COMPILE_CACHE.entries.values())).ir
    hit_ids = _objects(hit.ir)
    assert not hit_ids & _objects(cached)
    assert not hit_ids & _objects(fresh.ir)
    assert not hit_ids & _objects(again.ir)
    assert not _objects(fresh.ir) & _objects(cached)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traffic_program())
def test_generated_program_hits_match_fresh_compiles(program):
    source, _ = program
    kernel = Kernel()
    policy = CaratPolicyModule(kernel).install()
    PolicyManager(kernel).set_default(True)
    for opt_level in (0, 1, 2, 3):
        COMPILE_CACHE.clear()
        opts = _options("prog", opt_level, policy)
        fresh = compile_module(source, opts)
        hit = compile_module(source, opts)
        assert COMPILE_CACHE.hits == 1
        _assert_same_compile(fresh, hit)


def test_mutating_a_hit_does_not_reach_the_cache():
    opts = CompileOptions(module_name="small", opt_level=2)
    expected = print_module(compile_module(SMALL, opts).ir)
    hit = compile_module(SMALL, opts)
    ir = hit.ir
    ir.metadata["carat.guard_count"] = 999
    ir.metadata["extra"] = 1
    fn = ir.functions["run"]
    fn.blocks[0].instructions.pop(0)
    fn.name = "renamed"
    fn.attributes.add("noinline")
    ir.globals["cells"].linkage = "exported"
    ir.bump_generation()
    hit.stats.guards = -1
    hit.stats.passes_run.append("bogus")

    again = compile_module(SMALL, opts)
    assert COMPILE_CACHE.hits == 2
    assert print_module(again.ir) == expected
    assert again.stats.guards != -1
    assert "bogus" not in again.stats.passes_run
    assert "noinline" not in again.ir.functions["run"].attributes


def test_different_region_set_misses_with_different_verdicts():
    _, allow_policy, _ = _policy()
    _, deny_policy, deny = _policy()
    deny.clear()
    opts_allow = _options(NET_NAME, 3, allow_policy, NET_CONTRACTS)
    opts_deny = _options(NET_NAME, 3, deny_policy, NET_CONTRACTS)
    first = compile_module(NET_SOURCE, opts_allow)
    second = compile_module(NET_SOURCE, opts_deny)
    assert COMPILE_CACHE.stats()["misses"] == 2
    assert COMPILE_CACHE.hits == 0
    assert first.certificate.verdicts != second.certificate.verdicts
    assert first.certificate.policy_digest != second.certificate.policy_digest


def test_add_then_remove_region_hits_with_the_new_epoch():
    kernel, policy, manager = _policy(63)
    kernel.register_verify_contracts(VBLK_CONTRACTS, module=BLK_NAME)
    opts = _options(BLK_NAME, 3, policy, VBLK_CONTRACTS)
    stale = compile_module(BLK_SOURCE, opts)
    epoch, digest = policy.index.epoch, policy.index.digest()

    manager.add_region(0x3_0000_0000, 0x1000, 0x3)
    manager.remove_region(0x3_0000_0000, 0x1000)
    assert policy.index.epoch != epoch
    assert policy.index.digest() == digest

    hit = compile_module(BLK_SOURCE, opts)
    assert COMPILE_CACHE.hits == 1
    assert hit.certificate.policy_epoch == policy.index.epoch
    assert hit.certificate.verdicts == stale.certificate.verdicts

    # The stale certificate is still refused: insmod checks the epoch.
    loaded = kernel.insmod(stale)
    assert loaded.verify_state == "demoted:stale policy epoch"
    kernel.rmmod(BLK_NAME)
    loaded = kernel.insmod(hit)
    assert loaded.verify_state == "verified"
    assert len(loaded.elided_guards) == hit.stats.guards_proven > 0


def test_hits_are_signed_per_request_key():
    key_a = SigningKey.generate("key-a")
    key_b = SigningKey.generate("key-b")
    a = compile_module(SMALL, CompileOptions(module_name="small", key=key_a))
    b = compile_module(SMALL, CompileOptions(module_name="small", key=key_b))
    b2 = compile_module(SMALL, CompileOptions(module_name="small", key=key_b))
    assert COMPILE_CACHE.stats() == {"entries": 1, "hits": 2, "misses": 1}
    for compiled, own, other in ((a, key_a, key_b), (b, key_b, key_a),
                                 (b2, key_b, key_a)):
        verify_signature(compiled.ir, compiled.signature, own)
        with pytest.raises(SignatureError):
            verify_signature(compiled.ir, compiled.signature, other)


def test_failed_compile_leaves_no_entry(monkeypatch):
    with pytest.raises(CParseError):
        compile_module("long broken( {", CompileOptions(module_name="bad"))
    assert COMPILE_CACHE.stats()["entries"] == 0

    def boom(self, module):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(GuardInjectionPass, "run", boom)
    with pytest.raises(RuntimeError, match="pass failed"):
        compile_module(SMALL, CompileOptions(module_name="small"))
    assert COMPILE_CACHE.stats()["entries"] == 0
    monkeypatch.undo()
    compile_module(SMALL, CompileOptions(module_name="small"))
    assert COMPILE_CACHE.stats() == {"entries": 1, "hits": 0, "misses": 3}


def test_ir_input_and_undigestable_table_bypass_the_cache():
    ir = compile_module(SMALL, CompileOptions(module_name="small",
                                              protect=False)).ir
    before = COMPILE_CACHE.stats()
    compile_module(ir, CompileOptions(module_name="small2"))

    class NoDigest:
        epoch = 0

    opts = CompileOptions(module_name="small", opt_level=3,
                          verify_table=NoDigest())
    with pytest.raises(AttributeError):
        compile_module(SMALL, opts)
    assert COMPILE_CACHE.stats() == before


def test_lru_bound():
    opts = [CompileOptions(module_name=f"m{i}", protect=False)
            for i in range(COMPILE_CACHE_ENTRIES + 1)]
    for o in opts:
        compile_module(SMALL, o)
    assert COMPILE_CACHE.stats()["entries"] == COMPILE_CACHE_ENTRIES
    compile_module(SMALL, opts[-1])
    assert COMPILE_CACHE.hits == 1
    compile_module(SMALL, opts[0])  # evicted first
    assert COMPILE_CACHE.hits == 1


def test_insmod_reverifies_every_hit(monkeypatch):
    """The cache stops at the module boundary: each load of a hit runs
    the IR verifier and the full static re-analysis again."""
    import repro.kernel.module_loader as loader
    from repro.passes.absint import ModuleVerifier

    calls = {"verify_module": 0, "reanalysis": 0}
    real_verify, real_run = loader.verify_module, ModuleVerifier.run

    def counting_verify(module):
        calls["verify_module"] += 1
        return real_verify(module)

    def counting_run(self):
        calls["reanalysis"] += 1
        return real_run(self)

    kernel, policy, _ = _policy()
    opts = _options("small", 3, policy)
    compile_module(SMALL, opts)
    monkeypatch.setattr(loader, "verify_module", counting_verify)
    monkeypatch.setattr(ModuleVerifier, "run", counting_run)
    for _ in range(2):
        hit = compile_module(SMALL, opts)
        kernel.insmod(hit)
        kernel.rmmod("small")
    assert COMPILE_CACHE.hits == 2
    assert calls == {"verify_module": 2, "reanalysis": 2}
