"""The three benchmark workloads, driven through the public API.

Every workload is a closed loop with one client: the next op is issued
when the previous one returns.  Ops are sharded round-robin over the
simulated CPUs with ``kernel.smp.run_round_robin`` (the same scheme
``pktblast``/``blkblast`` use), so the global op order does not depend on
the CPU count.  Each op is derived from ``(seed, op index)`` alone, which
makes a run's simulated results a pure function of its seed.

A workload object owns one assembled system at a time:

``setup()``      builds a fresh system (boot, policy, compile, insmod,
                 probe) -- the part ``setup_s`` times;
``warmup()``     runs untimed ops so caches and rings reach steady state;
``run_chunk()``  runs one deterministic batch of timed ops;
``finish()``     drains the devices and returns the output-oracle
                 failures (an empty list means every output checked out);
``sim_counters()`` and ``counters()`` expose simulated and per-layer
                 counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter_ns

from repro.core import pipeline
from repro.core.system import CaratKopSystem, SystemConfig
from repro.e1000e import DRIVER_NAME as NET_DRIVER
from repro.e1000e import DRIVER_SOURCE as NET_SOURCE
from repro.e1000e import E1000EDevice, E1000ENetDev
from repro.e1000e.contracts import DRIVER_CONTRACTS as NET_CONTRACTS
from repro.kernel import Kernel
from repro.kernel import layout
from repro.net import PacketSink, RawPacketSocket
from repro.net.frame import make_test_frame
from repro.policy import CaratPolicyModule, PolicyManager, make_index
from repro.vblk import DRIVER_NAME as BLK_DRIVER
from repro.vblk import DRIVER_SOURCE as BLK_SOURCE
from repro.vblk import (
    VBLK_CONTRACTS,
    BlockRequestQueue,
    VblkBlockDev,
    VblkDevice,
    make_test_block,
    regs as blk_regs,
)
from repro.vm.machine import get_machine

MACHINE = "r415"
CPUS = 2
FRAME_SIZE = 128
BLK_NSECT = 8
BLK_FLUSH_EVERY = 16
KEEP_LAST = 8
_MASK64 = (1 << 64) - 1


def mix(seed: int, index: int) -> int:
    """splitmix64 of ``(seed, index)``: the stateless source of every
    seeded choice, so op ``i`` is the same whichever CPU issues it."""
    x = (index + 1 + seed * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Scale:
    """Run sizes.  ``full`` is the benchmark; ``tiny`` is for the
    self-test, which only checks shapes and oracles."""

    setups: int
    warmup: int        # base warm-up ops (net-tx/blk-mixed)
    chunk: int         # ops per deterministic batch (net-tx/blk-mixed)
    window: int        # timed ops the sim_* metrics cover (net-tx/blk-mixed)
    burst: int         # traffic ops per burst (module-churn)
    rate_window: int   # timed ops per throughput window (net-tx/blk-mixed)


SCALES = {
    "full": Scale(setups=3, warmup=512, chunk=128, window=4096, burst=16,
                  rate_window=1024),
    "tiny": Scale(setups=2, warmup=32, chunk=16, window=64, burst=4,
                  rate_window=32),
}


class Recorder:
    """Per-op host latencies plus the sim-window traffic samples.

    ``host(ns, ok)`` records one op of the timed phase; ``traffic(...)``
    records one simulated request (a frame or a block request) while the
    sim window is open.  The window closes at a chunk boundary after a
    fixed number of ops, so what it holds depends only on the seed."""

    def __init__(self) -> None:
        self.host_ns: list[int] = []
        #: The kind of each recorded op (see ``Workload.op_kinds``).
        self.kinds: list[int] = []
        self.failed = 0
        self.in_window = True
        self.sim_latency: list[float] = []
        self.sim_cycles = 0.0

    def host(self, ns: int, ok: bool, kind: int = 0) -> None:
        self.host_ns.append(ns)
        self.kinds.append(kind)
        if not ok:
            self.failed += 1

    def traffic(self, elapsed_cycles: float, latency_cycles: float) -> None:
        if self.in_window:
            self.sim_cycles += elapsed_cycles
            self.sim_latency.append(latency_cycles)


class Workload:
    """Shared plumbing: seeded op sharding over the simulated CPUs."""

    name = ""
    #: Timed ops after which the sim window closes (0: the scale's window).
    window_ops = 0
    #: The timed phase may only stop after a multiple of this many ops
    #: (0: the chunk size).
    stop_every = 0
    #: Timed ops after which ``peak_rss_mb`` is read (0: at the end).
    rss_ops = 0
    #: Number of op kinds (an op's kind is recorded with its latency).
    #: Kinds with different costs form separate latency clusters, and a
    #: pooled median falls at the edge of one of them, where a few
    #: extreme samples decide it; so ``host_op_p50_us`` combines the
    #: median of each kind instead.
    op_kinds = 1
    #: Timed ops per window of ``host_ops_per_s`` (a multiple of the
    #: chunk size; 0: the scale's ``rate_window``).
    rate_window = 0

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.machine = get_machine(MACHINE)
        self.rec = Recorder()
        self.warm_rec = Recorder()
        self.warm_rec.in_window = False
        self.window_ops = self.window_ops or scale.window
        self.rate_window = self.rate_window or scale.rate_window
        self.stop_every = self.stop_every or scale.chunk
        #: Ops issued so far (warm-up + timed) on the current system.
        self.issued = 0
        #: Messages for ops that failed an output check (already counted
        #: as failed ops by the recorder).
        self.notes: list[str] = []

    # The current system's kernel.
    kernel: Kernel

    def _drive(self, first: int, count: int, op) -> None:
        """Issue ops ``first .. first+count-1`` round-robin over the CPUs,
        in index order.  Batches start at multiples of the CPU count, so
        op ``i`` always runs on CPU ``i % ncpus`` (rotated by the SMP seed)."""
        smp = self.kernel.smp
        n = smp.ncpus
        start = smp.seed % n

        def shard(indices):
            for i in indices:
                op(i)
                yield

        smp.run_round_robin([
            shard(range(first + (cpu - start) % n, first + count, n))
            for cpu in range(n)
        ])

    def _request(self, call) -> bool:
        """One simulated request: charge the client's own per-iteration
        cycles (as pktblast does), run ``call() -> (result, ok)`` and
        record the request's cycles for the sim window."""
        timing = self.timing
        c0 = timing.cycles
        timing.add_cycles(self.machine.userspace_per_packet_cycles)
        res, ok = call()
        self.rec.traffic(timing.cycles - c0, res.latency_cycles)
        return ok

    def run_chunk(self) -> None:
        count = self.scale.chunk
        self._drive(self.issued, count, self.op)
        self.issued += count

    def warmup(self) -> None:
        count = self.warmup_ops()
        rec, self.rec = self.rec, self.warm_rec
        try:
            self._drive(self.issued, count, self.op)
        finally:
            self.rec = rec
        self.issued += count

    def warmup_ops(self) -> int:
        return 0

    def sim_counters(self) -> dict:
        raise NotImplementedError

    def counters(self) -> dict:
        raise NotImplementedError

    def finish(self) -> list[str]:
        raise NotImplementedError


class NetTx(Workload):
    """The paper's workload: 128 B raw frames through ``sendmsg`` on the
    guarded e1000e, production tier (-O2, interval index, 64 regions)."""

    name = "net-tx"

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        self.seq_base = mix(seed, 0) & 0xFFFFFFFF

    def setup(self) -> None:
        self.system = CaratKopSystem(SystemConfig(
            machine=MACHINE, driver="e1000e", opt_level=2,
            policy_index="interval", regions=64, cpus=CPUS,
        ))
        self.kernel = self.system.kernel
        self.timing = self.kernel.vm.timing
        self.issued = 0

    def teardown(self) -> None:
        self.system.teardown()

    def warmup_ops(self) -> int:
        # Seeded, so each seed's timed phase starts at a different point
        # of the frame stream; a multiple of the CPU count (see _drive).
        return self.scale.warmup + CPUS * (self.seed % (self.scale.warmup // 4))

    def frame(self, i: int) -> bytes:
        return make_test_frame(FRAME_SIZE, (self.seq_base + i) & 0xFFFFFFFF).encode()

    def op(self, i: int) -> None:
        frame = self.frame(i)
        socket = self.system.socket
        t0 = perf_counter_ns()
        ok = self._request(lambda: sent(socket.sendmsg(frame)))
        self.rec.host(perf_counter_ns() - t0, ok)

    def sim_counters(self) -> dict:
        return {
            "timing": self.timing.snapshot(),
            "policy": self.system.policy.stats.as_dict(),
            "device": self.system.device.stats(),
            "sink": [self.system.sink.packets, self.system.sink.octets],
        }

    def counters(self) -> dict:
        s = self.system
        return {
            "policy": s.policy.stats.as_dict(),
            "instructions": self.timing.instructions,
            "net_stalls": s.socket.stalls,
            "blk_stalls": 0,
            "dma_sectors": 0,
            "tcache": _tcache(s.kernel),
            "verify_demotions": s.kernel.verify_demotions,
        }

    def finish(self) -> list[str]:
        return check_sink(self.system.device, self.system.sink,
                          self.issued, self.frame)


def sent(res):
    """``(result, ok)`` for a ``sendmsg`` result."""
    return res, res.rc == 0


def check_sink(device, sink, count: int, frame) -> list[str]:
    """Every frame reached the sink, and the kept tail is the last
    frames sent, in order."""
    device.sync()
    failures = []
    if sink.packets != count:
        failures.append(f"sink got {sink.packets} of {count} frames")
    keep = min(KEEP_LAST, count)
    expected = [frame(i) for i in range(count - keep, count)]
    if list(sink.recent[-keep:]) != expected:
        failures.append("kept frames do not match the last frames sent")
    return failures


def _tcache(kernel) -> list[int]:
    vm = kernel.vm
    return [getattr(vm, "translation_cache_hits", 0),
            getattr(vm, "translation_cache_misses", 0)]


class BlockStream:
    """Seeded 8-sector ops, 50% reads / 50% writes with a flush every
    16th request, checked against a shadow of the media."""

    def __init__(self, seed: int, capacity_sectors: int):
        self.seed = seed
        self.span = capacity_sectors - BLK_NSECT + 1
        self.length = BLK_NSECT * blk_regs.SECTOR_SIZE
        self.shadow = bytearray(capacity_sectors * blk_regs.SECTOR_SIZE)

    #: Request kinds, as ``kind()`` numbers them.
    WRITE, READ, FLUSH = range(3)

    def kind(self, i: int) -> int:
        if i % BLK_FLUSH_EVERY == BLK_FLUSH_EVERY - 1:
            return self.FLUSH
        return mix(self.seed, i) & 1

    def issue(self, queue: BlockRequestQueue, i: int):
        """Run request ``i``; returns ``(result, ok)``."""
        kind = self.kind(i)
        if kind == self.FLUSH:
            res = queue.fsync()
            return res, res.rc == 0
        bits = mix(self.seed, i)
        sector = (bits >> 8) % self.span
        off = sector * blk_regs.SECTOR_SIZE
        if kind == self.READ:
            res = queue.pread(sector, BLK_NSECT)
            ok = res.rc == 0 and res.data == self.shadow[off:off + self.length]
            return res, ok
        payload = make_test_block(self.length, mix(~self.seed & _MASK64, i))
        res = queue.pwrite(sector, payload)
        if res.rc == 0:
            self.shadow[off:off + self.length] = payload
        return res, res.rc == 0

    def check_store(self, device: VblkDevice) -> list[str]:
        device.sync()
        if hashlib.sha256(device.store).digest() != hashlib.sha256(self.shadow).digest():
            return ["final store sha256 differs from the shadow image"]
        return []


class BlkMixed(Workload):
    """The vblk stack at -O3 with its contracts, ``queues=auto``: seeded
    random 8-sector reads and writes with periodic flushes."""

    name = "blk-mixed"
    op_kinds = 3

    def setup(self) -> None:
        self.system = CaratKopSystem(SystemConfig(
            machine=MACHINE, driver="vblk", opt_level=3,
            policy_index="interval", regions=64, cpus=CPUS, queues="auto",
        ))
        self.kernel = self.system.kernel
        self.timing = self.kernel.vm.timing
        self.stream = BlockStream(self.seed, self.system.device.capacity_sectors)
        self.issued = 0

    def teardown(self) -> None:
        self.system.teardown()

    def warmup_ops(self) -> int:
        return self.scale.warmup // 2 + CPUS * (self.seed % (self.scale.warmup // 8))

    def op(self, i: int) -> None:
        queue = self.system.blkqueue
        t0 = perf_counter_ns()
        ok = self._request(lambda: self.stream.issue(queue, i))
        self.rec.host(perf_counter_ns() - t0, ok, self.stream.kind(i))

    def sim_counters(self) -> dict:
        dev = self.system.device
        return {
            "timing": self.timing.snapshot(),
            "policy": self.system.policy.stats.as_dict(),
            "device": dev.stats(),
            "store_sha256": hashlib.sha256(dev.store).hexdigest(),
        }

    def counters(self) -> dict:
        s = self.system
        dev = s.device
        return {
            "policy": s.policy.stats.as_dict(),
            "instructions": self.timing.instructions,
            "net_stalls": 0,
            "blk_stalls": s.blkqueue.stalls,
            "dma_sectors": dev.sectors_read + dev.sectors_written,
            "tcache": _tcache(s.kernel),
            "verify_demotions": s.kernel.verify_demotions,
        }

    def finish(self) -> list[str]:
        return self.stream.check_store(self.system.device)


#: One sweep of module-churn: both drivers at every guard tier.
CHURN_SWEEP = tuple(
    (driver, level) for driver in (NET_DRIVER, BLK_DRIVER) for level in range(4)
)


class ModuleChurn(Workload):
    """One booted kernel; each op is a full load cycle of one driver at
    one tier: compile, insmod, probe, burst, policy mutation, burst,
    region removal, remove, rmmod."""

    name = "module-churn"
    # The sim window is the first sweep.  The timed phase may stop after
    # any cycle: a sweep lasts about a second, and stopping only on whole
    # sweeps would make the run length, and so wall_s, vary by up to half
    # of one.
    window_ops = len(CHURN_SWEEP)
    stop_every = 1
    # The process grows with every sweep, so peak RSS is read after a
    # fixed number of sweeps (or at the end of a shorter run): runs that
    # fit one more or one fewer sweep into the budget stay comparable.
    rss_ops = 8 * len(CHURN_SWEEP)
    # One kind per configuration of the sweep; throughput windows are
    # whole sweeps.
    op_kinds = rate_window = len(CHURN_SWEEP)

    def setup(self) -> None:
        machine = self.machine
        kernel = Kernel(machine=machine, ncpus=CPUS, engine="compiled")
        self.kernel = kernel
        self.timing = kernel.vm.timing
        self.policy = CaratPolicyModule(kernel, index=make_index("interval")).install()
        self.manager = PolicyManager(kernel)
        # One slot short of the table limit, so each cycle's mutation fits.
        self.manager.install_n_region_policy(63)
        self.sink = PacketSink(keep_last=KEEP_LAST)
        clock = lambda: kernel.vm.timing.cycles  # noqa: E731
        self.net_device = E1000EDevice(kernel, self.sink, clock=clock,
                                       freq_hz=machine.freq_hz)
        self.blk_device = VblkDevice(kernel, clock=clock, freq_hz=machine.freq_hz)
        kernel.register_verify_contracts(NET_CONTRACTS, module=NET_DRIVER)
        kernel.register_verify_contracts(VBLK_CONTRACTS, module=BLK_DRIVER)
        self.stream = BlockStream(self.seed, self.blk_device.capacity_sectors)
        self.frames_sent = 0
        self.requests_sent = 0
        self.net_stalls = 0
        self.blk_stalls = 0
        self.issued = 0

    def teardown(self) -> None:
        self.policy.uninstall()

    def frame(self, i: int) -> bytes:
        return make_test_frame(FRAME_SIZE, (self.seed + i) & 0xFFFFFFFF).encode()

    def run_chunk(self) -> None:
        self.op(self.issued)
        self.issued += 1

    def op(self, i: int) -> None:
        t0 = perf_counter_ns()
        failures = self.cycle(i)
        t1 = perf_counter_ns()
        self.rec.host(t1 - t0, not failures, i % len(CHURN_SWEEP))
        self.notes.extend(f"cycle {i}: {f}" for f in failures)

    def _burst(self, traffic_op) -> list[str]:
        bad = []

        def op(_i):
            if not traffic_op():
                bad.append(1)

        self._drive(0, self.scale.burst, op)
        return ["burst op failed"] * len(bad)

    def cycle(self, i: int) -> list[str]:
        driver, level = CHURN_SWEEP[i % len(CHURN_SWEEP)]
        kernel = self.kernel
        opts = pipeline.CompileOptions(module_name=driver, opt_level=level)
        if level == 3:
            opts.verify_table = self.policy.index
            opts.contracts = NET_CONTRACTS if driver == NET_DRIVER else VBLK_CONTRACTS
        # Looked up on the module at call time, so the traced run's
        # wrapper sees this call too.
        compiled = pipeline.compile_module(
            NET_SOURCE if driver == NET_DRIVER else BLK_SOURCE, opts)
        loaded = kernel.insmod(compiled)
        failures = []
        if driver == NET_DRIVER:
            netdev = E1000ENetDev(kernel, loaded, self.net_device)
            netdev.probe()
            socket = RawPacketSocket(kernel, netdev, self.machine)

            def traffic() -> bool:
                frame = self.frame(self.frames_sent)
                self.frames_sent += 1
                return self._request(lambda: sent(socket.sendmsg(frame)))
        else:
            blkdev = VblkBlockDev(kernel, loaded, self.blk_device, queues=CPUS)
            blkdev.probe()
            queue = BlockRequestQueue(kernel, blkdev, self.machine)

            def traffic() -> bool:
                n = self.requests_sent
                self.requests_sent += 1
                return self._request(lambda: self.stream.issue(queue, n))

        expect_demotions = 1 if level == 3 else 0
        if level == 3 and not (loaded.verify_state == "verified" and loaded.elided_guards):
            failures.append(f"{driver} -O3 load did not elide guards")
        if level < 3 and loaded.elided_guards:
            failures.append(f"{driver} -O{level} load elided guards")
        demotions = kernel.verify_demotions
        failures += self._burst(traffic)
        region = 0x3_0000_0000 + (mix(self.seed, i) % 4096) * layout.PAGE_SIZE
        self.manager.allow(region, layout.PAGE_SIZE)
        if kernel.verify_demotions - demotions != expect_demotions:
            failures.append(f"{driver} -O{level}: mutation demoted "
                            f"{kernel.verify_demotions - demotions} times")
        failures += self._burst(traffic)
        if not self.manager.remove_region(region, layout.PAGE_SIZE):
            failures.append("added region was not removed")
        if kernel.verify_demotions - demotions != expect_demotions:
            failures.append(f"{driver} -O{level}: demoted again after removal")
        if loaded.elided_guards:
            failures.append(f"{driver} -O{level}: guards still elided after mutation")
        if driver == NET_DRIVER:
            failures += check_sink(self.net_device, self.sink,
                                   self.frames_sent, self.frame)
            self.net_stalls += socket.stalls
            netdev.remove()
        else:
            self.blk_stalls += queue.stalls
            blkdev.remove()
        kernel.rmmod(driver)
        return failures

    def sim_counters(self) -> dict:
        return {
            "timing": self.timing.snapshot(),
            "policy": self.policy.stats.as_dict(),
            "net_device": self.net_device.stats(),
            "blk_device": self.blk_device.stats(),
            "sink": [self.sink.packets, self.sink.octets],
            "store_sha256": hashlib.sha256(self.blk_device.store).hexdigest(),
            "verify_demotions": self.kernel.verify_demotions,
        }

    def counters(self) -> dict:
        dev = self.blk_device
        return {
            "policy": self.policy.stats.as_dict(),
            "instructions": self.timing.instructions,
            "net_stalls": self.net_stalls,
            "blk_stalls": self.blk_stalls,
            "dma_sectors": dev.sectors_read + dev.sectors_written,
            "tcache": _tcache(self.kernel),
            "verify_demotions": self.kernel.verify_demotions,
        }

    def finish(self) -> list[str]:
        failures = []
        if self.kernel.lsmod():
            failures.append(f"modules left loaded: {self.kernel.lsmod()}")
        return failures + self.stream.check_store(self.blk_device)


WORKLOADS = {w.name: w for w in (NetTx, BlkMixed, ModuleChurn)}
