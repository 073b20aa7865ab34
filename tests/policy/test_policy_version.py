"""The policy-view version: one monotonic counter answers "is my cached
view of the policy still current?" for every consumer.

Guard-decision caches and -O3 verification records compare
``CaratPolicyModule.version`` and nothing else, so every change to what
a guard can read must move it: ioctl and direct-poke mutations of any
bound index, default flips, and control-plane transitions.  Enforcement
mode changes alter what happens *after* a decision, so they clear the
decision caches in place but leave the version (and -O3 elisions) alone.
"""

import pytest

from repro import abi
from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel
from repro.passes.absint import AREAS
from repro.policy import (
    MODE_EJECT,
    OP_ADD,
    OP_DEL,
    CaratPolicyModule,
    ControlPlaneConfig,
    PolicyControlPlane,
    PolicyManager,
    Region,
    RegionTable,
)
from repro.policy.structures import CachedIndex, SortedRegionIndex

RW = abi.FLAG_READ | abi.FLAG_WRITE

SOURCE = """
long cells[4];
__export long run(long seed) {
    cells[0] = seed;
    cells[1] = cells[0] + 1;
    return cells[1];
}
"""


def _policy(index=None):
    kernel = Kernel()
    policy = CaratPolicyModule(kernel, index=index, enforce=False).install()
    return kernel, policy, PolicyManager(kernel)


def _allow_modules(manager):
    lo, hi = AREAS["module"]
    manager.allow(lo, hi - lo + 1)
    return lo, hi - lo + 1


def _o3(policy):
    return compile_module(SOURCE, CompileOptions(
        module_name="prog", protect=True, opt_level=3,
        verify_table=policy.index,
    ))


class TestVersionMoves:
    def test_direct_and_ioctl_mutations_bump(self):
        _, policy, manager = _policy()
        seen = [policy.version]

        def moved():
            seen.append(policy.version)
            return seen[-1] > seen[-2]

        policy.index.add(Region(0x1000, 0x1000, RW))  # direct poke
        assert moved()
        manager.add_region(0x8000, 0x1000, RW)
        assert moved()
        manager.set_default(True)
        assert moved()
        manager.set_default(True)  # no change, no bump
        assert not moved()
        policy.index.default_allow = False  # direct setter
        assert moved()
        manager.add_region_for("mod", 0x9000, 0x1000, RW)
        assert moved()
        manager.clear_module_policy("mod")
        assert moved()

    def test_default_flip_moves_the_content_epoch(self):
        for index in (RegionTable(), SortedRegionIndex(),
                      CachedIndex(SortedRegionIndex())):
            epoch = index.epoch
            index.default_allow = True
            assert index.epoch == epoch + 1
            index.default_allow = True
            assert index.epoch == epoch + 1

    def test_control_plane_transitions_bump(self):
        kernel, policy, manager = _policy()
        cp = PolicyControlPlane(
            kernel, policy, ControlPlaneConfig(canary_tick_limit=1)
        )

        def bumps(step):
            before = policy.version
            step()
            return policy.version > before

        def stage(slot):
            return lambda: cp.submit_batch(
                "a", [(OP_ADD, 0x5000_0000 + 0x2000 * slot, 0x1000, RW)])

        assert bumps(cp.attach)
        # An empty tenant changes nothing a guard reads.
        assert not bumps(lambda: cp.create_tenant("a"))
        assert bumps(stage(0))
        assert bumps(cp.tick)  # promote
        stage(1)()
        # A system mutation preempts the staged canary (rollback) and
        # publishes a fresh generation.
        assert bumps(lambda: manager.add_region(0x9000, 0x1000, RW))
        assert cp.rollback_records
        assert bumps(cp.detach)

    def test_mode_change_keeps_version_and_elisions(self):
        kernel, policy, manager = _policy()
        _allow_modules(manager)
        loaded = kernel.insmod(_o3(policy))
        assert loaded.verify_state == "verified" and loaded.elided_guards
        version = policy.version
        policy.set_mode(MODE_EJECT)
        policy.set_module_mode("prog", None)
        assert policy.version == version
        assert kernel.run_function(loaded, "run", [4]) == 5
        assert loaded.elided_guards and kernel.verify_demotions == 0


class TestPerModuleIndex:
    def test_direct_add_invalidates_its_cache_and_changes_decision(self):
        _, policy, _ = _policy()
        table = RegionTable()
        policy.module_indexes["mod"] = table
        for _ in range(2):
            policy._guard(None, 0x1800, 8, abi.FLAG_READ, "mod")
        stats = policy.stats
        assert (stats.denied, stats.guard_cache_hits) == (2, 1)
        table.add(Region(0x1000, 0x1000, RW))  # direct poke, no ioctl
        policy._guard(None, 0x1800, 8, abi.FLAG_READ, "mod")
        stats = policy.stats
        assert stats.guard_cache_misses == 2
        assert (stats.allowed, stats.denied) == (1, 2)

    def test_ioctl_created_table_reports_direct_pokes(self):
        _, policy, manager = _policy()
        manager.add_region_for("mod", 0x9000, 0x1000, RW)
        policy._guard(None, 0x1800, 8, abi.FLAG_READ, "mod")
        policy.module_indexes["mod"].add(Region(0x1000, 0x1000, RW))
        policy._guard(None, 0x1800, 8, abi.FLAG_READ, "mod")
        assert policy.stats.allowed == 1


class TestCachedIndexDefault:
    def test_set_default_through_the_manager(self):
        _, policy, manager = _policy(CachedIndex(RegionTable()))
        policy._guard(None, 0x4000, 8, abi.FLAG_READ)
        assert policy.stats.denied == 1
        epoch, version = policy.index.epoch, policy.version
        manager.set_default(True)
        assert policy.index.default_allow is True
        assert policy.index.epoch == epoch + 1
        assert policy.version > version
        policy._guard(None, 0x4000, 8, abi.FLAG_READ)
        assert policy.stats.allowed == 1


class TestStagedCanaryInsmod:
    @pytest.mark.parametrize("ncpus", [2, 4])
    def test_insmod_does_not_certify_while_a_generation_is_staged(
            self, ncpus):
        """A promoted tenant region makes the module area read-only; a
        staged batch deletes it.  Only canary CPU 0 reads the staged
        generation, so the others still deny writes to the module area:
        insmod must not elide guards proven against the master."""
        kernel = Kernel(ncpus=ncpus)
        policy = CaratPolicyModule(kernel, enforce=False).install()
        manager = PolicyManager(kernel)
        cp = PolicyControlPlane(
            kernel, policy, ControlPlaneConfig(canary_tick_limit=1)
        ).attach()
        base, length = _allow_modules(manager)
        cp.create_tenant("a")
        cp.submit_batch("a", [(OP_ADD, base, length, abi.FLAG_READ)])
        assert cp.tick() == 1  # promoted: module area is read-only
        cp.submit_batch("a", [(OP_DEL, base, length, 0)])
        assert cp.status()["staged_generation"]
        loaded = kernel.insmod(_o3(policy))
        assert loaded.verify_state != "verified"
        assert not loaded.elided_guards
        assert "staged" in loaded.verify_state
        # A non-canary CPU still reads the promoted read-only region:
        # the store is guarded and denied (audit mode), not elided.
        with kernel.smp.on(ncpus - 1):
            kernel.run_function(loaded, "run", [1])
        assert policy.violations.get("prog", 0) >= 1


def test_every_structure_answers_a_flipped_default():
    """A default flip reaches every structure's fall-through answer
    (the bloom filter's backing table included)."""
    from repro.policy.structures import STRUCTURES

    for cls in STRUCTURES.values():
        index = cls()
        index.add(Region(0x1000, 0x1000, RW))
        index.default_allow = True
        # Straddles the region's end: no region covers it.
        assert index.check(0x1800, 0x1000, abi.FLAG_READ)[0] is True, cls
