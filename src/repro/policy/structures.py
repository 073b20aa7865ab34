"""Alternative policy-index structures (paper §3.1 and §4.2 speculation).

The paper proposes several upgrades to the 64-entry linear table and
explicitly frames CARAT KOP as "the methodology to easily iterate upon a
simplistic structure":

- sorted table + **binary search** ("The first of these would be simply to
  sort the regions in the policy in order, and then do a binary search"),
- a **splay tree** / popularity structure ("a popularity-based data
  structure such as a splay tree or a simple cache over the region data
  structure (as done in CARAT CAKE)"),
- **AMQ filters** ("any of a variety of AMQ-filters may very well improve
  average performance"),
- a **locality-sensitive-hash bucket** scheme ("finding the 'closest
  bucket' of policy-defined regions to an arbitrary address in constant
  time").

All structures implement the same interface as
:class:`repro.policy.table.RegionTable` and — for non-overlapping
policies — must return byte-identical decisions (property-tested).  Each
``check`` reports the number of entry comparisons performed, the
quantity the abl1 benchmark compares across structures.  The documented
trade-off holds here too: only the linear table supports overlapped
regions (first-match-wins priority).
"""

from __future__ import annotations

import bisect
from typing import Optional

from .region import Decision, Region
from .table import MAX_REGIONS, IndexBase, PolicyTableFull, RegionTable


class OverlapError(ValueError):
    """This structure cannot represent overlapped regions (paper §3.1)."""


class _NonOverlappingBase(IndexBase):
    """Indexes that require disjoint regions (``_regions`` sorted by base)."""

    supports_overlap = False
    #: Whether ``check`` is a pure function of (regions, default_allow);
    #: structures that mutate on lookup must set this False so the
    #: guard-decision cache bypasses them (see policy/module.py).
    pure_check = True

    def _check_insert(self, region: Region) -> int:
        if len(self._regions) >= self.max_regions:
            raise PolicyTableFull(
                f"policy is limited to {self.max_regions} regions"
            )
        idx = bisect.bisect_left([r.base for r in self._regions], region.base)
        for neighbour in self._regions[max(0, idx - 1) : idx + 1]:
            if neighbour.overlaps(region):
                raise OverlapError(
                    f"{self.name} cannot hold overlapped regions: "  # type: ignore[attr-defined]
                    f"{region.describe()} vs {neighbour.describe()}"
                )
        return idx


class SortedRegionIndex(_NonOverlappingBase):
    """Sorted array + binary search: the paper's O(log n) first step."""

    name = "sorted-bsearch"

    def __init__(self, default_allow: bool = False, max_regions: int = MAX_REGIONS):
        super().__init__(default_allow, max_regions)
        self._bases: list[int] = []

    def add(self, region: Region) -> int:
        idx = self._check_insert(region)
        self._regions.insert(idx, region)
        self._bases.insert(idx, region.base)
        self._changed()
        return idx

    def _on_mutate(self) -> None:
        self._bases = [r.base for r in self._regions]

    def check(self, addr: int, size: int, flags: int) -> Decision:
        # Rightmost region with base <= addr; count the bisection steps the
        # hardware would take (comparisons), plus the final cover check.
        lo, hi = 0, len(self._bases)
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if self._bases[mid] <= addr:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return self._default_allow, max(steps, 1)
        r = self._regions[lo - 1]
        steps += 1
        if r.covers(addr, size):
            return r.permits(flags), steps
        return self._default_allow, steps


class _SplayNode:
    __slots__ = ("region", "left", "right")

    def __init__(self, region: Region):
        self.region = region
        self.left: Optional["_SplayNode"] = None
        self.right: Optional["_SplayNode"] = None


class SplayRegionIndex(_NonOverlappingBase):
    """Splay tree keyed by region base: popular regions float to the root.

    The paper's motivation (§4.2): "It also stands to reason that the
    regions of a policy will vary in popularity.  Consequently ... a
    popularity-based data structure such as a splay tree ... might be
    able to do better than a logarithmic search in the common case."
    """

    name = "splay-tree"
    pure_check = False  # check() splays: lookups restructure the tree

    def __init__(self, default_allow: bool = False, max_regions: int = MAX_REGIONS):
        super().__init__(default_allow, max_regions)
        self._root: Optional[_SplayNode] = None

    def add(self, region: Region) -> int:
        idx = self._check_insert(region)
        self._regions.insert(idx, region)
        node = _SplayNode(region)
        if self._root is None:
            self._root = node
        else:
            self._root, _ = self._splay(self._root, region.base)
            if region.base < self._root.region.base:
                node.left = self._root.left
                node.right = self._root
                self._root.left = None
            else:
                node.right = self._root.right
                node.left = self._root
                self._root.right = None
            self._root = node
        self._changed()
        return idx

    def _on_mutate(self) -> None:
        # Rebuild balanced from the sorted region list (removal path).
        def build(lo: int, hi: int) -> Optional[_SplayNode]:
            if lo >= hi:
                return None
            mid = (lo + hi) // 2
            n = _SplayNode(self._regions[mid])
            n.left = build(lo, mid)
            n.right = build(mid + 1, hi)
            return n

        self._root = build(0, len(self._regions))

    @staticmethod
    def _splay(
        root: _SplayNode, key: int
    ) -> tuple[_SplayNode, int]:
        """Top-down splay toward ``key``; returns (new root, steps taken)."""
        header = _SplayNode(root.region)  # dummy
        header.left = header.right = None
        left_max = right_min = header
        t = root
        steps = 0
        while True:
            steps += 1
            if key < t.region.base:
                if t.left is None:
                    break
                if key < t.left.region.base:  # zig-zig: rotate right
                    y = t.left
                    t.left = y.right
                    y.right = t
                    t = y
                    steps += 1
                    if t.left is None:
                        break
                right_min.left = t
                right_min = t
                t = t.left
            elif key > t.region.base:
                if t.right is None:
                    break
                if key > t.right.region.base:  # zag-zag: rotate left
                    y = t.right
                    t.right = y.left
                    y.left = t
                    t = y
                    steps += 1
                    if t.right is None:
                        break
                left_max.right = t
                left_max = t
                t = t.right
            else:
                break
        left_max.right = t.left
        right_min.left = t.right
        t.left = header.right
        t.right = header.left
        return t, steps

    def check(self, addr: int, size: int, flags: int) -> Decision:
        if self._root is None:
            return self._default_allow, 1
        self._root, steps = self._splay(self._root, addr)
        node = self._root
        r = node.region
        if r.base <= addr:
            candidate = r
        else:
            # Root is the successor; the predecessor is the max of the
            # left subtree.
            candidate = None
            cur = node.left
            while cur is not None:
                steps += 1
                candidate = cur.region
                cur = cur.right
        if candidate is not None and candidate.covers(addr, size):
            return candidate.permits(flags), steps
        return self._default_allow, steps


class BloomFilter:
    """A classic Bloom filter over integers (no false negatives)."""

    def __init__(self, bits: int = 1 << 16, hashes: int = 3):
        if bits & (bits - 1):
            raise ValueError("bits must be a power of two")
        self.bits = bits
        self.hashes = hashes
        self._words = bytearray(bits // 8)
        self.population = 0

    @staticmethod
    def _mix(x: int) -> int:
        """splitmix64 finalizer: breaks the linearity of page numbers
        (a plain multiplicative hash mod 2^k keeps structured keys
        correlated and inflates the false-positive rate ~100x)."""
        mask = (1 << 64) - 1
        x &= mask
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & mask
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & mask
        x ^= x >> 31
        return x

    def _positions(self, key: int):
        # Kirsch-Mitzenmacher double hashing over two well-mixed hashes.
        h1 = self._mix(key)
        h2 = self._mix(key ^ 0x9E3779B97F4A7C15) | 1
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.bits

    def insert(self, key: int) -> None:
        for pos in self._positions(key):
            self._words[pos >> 3] |= 1 << (pos & 7)
        self.population += 1

    def __contains__(self, key: int) -> bool:
        return all(
            self._words[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key)
        )

    def clear(self) -> None:
        self._words = bytearray(self.bits // 8)
        self.population = 0


class AMQFilterIndex(_NonOverlappingBase):
    """Bloom-filter front end over page granules + linear backing table.

    The filter answers "might any region cover this page?" with no false
    negatives, so a negative is a constant-time **deny** (under default
    deny); positives fall through to the linear scan.  This is the
    deny-heavy accelerator flavour of the paper's AMQ suggestion; the
    allow-heavy flavour is :class:`CachedIndex`.
    """

    name = "amq-bloom"
    PAGE_SHIFT = 12
    #: Regions spanning more pages than this are kept on a side list
    #: instead of being expanded into the filter (the "kernel half" rule
    #: would otherwise need 2^35 insertions).
    MAX_FILTER_PAGES = 4096

    def __init__(self, default_allow: bool = False, max_regions: int = MAX_REGIONS):
        super().__init__(default_allow, max_regions)
        self._filter = BloomFilter()
        self._oversize: list[Region] = []
        self._backing = RegionTable(default_allow, max_regions)

    def add(self, region: Region) -> int:
        idx = self._check_insert(region)
        self._regions.insert(idx, region)
        self._insert_structures(region)
        self._changed()
        return idx

    def _changed(self) -> None:
        super()._changed()
        self._backing.default_allow = self._default_allow  # a default flip

    def _insert_structures(self, region: Region) -> None:
        # Track live capacity changes (benchmarks sweep past 64 regions).
        self._backing.max_regions = self.max_regions
        self._backing.add(region)
        first = region.base >> self.PAGE_SHIFT
        last = (region.end - 1) >> self.PAGE_SHIFT
        if last - first + 1 > self.MAX_FILTER_PAGES:
            self._oversize.append(region)
        else:
            for page in range(first, last + 1):
                self._filter.insert(page)

    def _on_mutate(self) -> None:
        self._filter.clear()
        self._oversize.clear()
        self._backing = RegionTable(self._default_allow, self.max_regions)
        for r in self._regions:
            self._insert_structures(r)

    def check(self, addr: int, size: int, flags: int) -> Decision:
        steps = 1  # the filter probe
        for r in self._oversize:
            steps += 1
            if r.covers(addr, size):
                return r.permits(flags), steps
        first = addr >> self.PAGE_SHIFT
        last = (addr + size - 1) >> self.PAGE_SHIFT
        if all(page not in self._filter for page in range(first, last + 1)):
            return self._default_allow, steps
        allowed, scanned = self._backing.check(addr, size, flags)
        return allowed, steps + scanned


class LSHBucketIndex(_NonOverlappingBase):
    """Bucketed lookup: hash the address's locality to candidate regions.

    The paper's idea: "Modification of the table to use a
    locality-sensitive hash function, thus finding the 'closest bucket' of
    policy-defined regions to an arbitrary address in constant time."
    Regions are inserted into every bucket they touch; giant regions (the
    half-space rules) live on a short side list.
    """

    name = "lsh-buckets"
    BUCKET_SHIFT = 16  # 64 KiB locality buckets
    MAX_BUCKETS_PER_REGION = 1024

    def __init__(self, default_allow: bool = False, max_regions: int = MAX_REGIONS):
        super().__init__(default_allow, max_regions)
        self._buckets: dict[int, list[Region]] = {}
        self._oversize: list[Region] = []

    def add(self, region: Region) -> int:
        idx = self._check_insert(region)
        self._regions.insert(idx, region)
        self._insert_structures(region)
        self._changed()
        return idx

    def _insert_structures(self, region: Region) -> None:
        first = region.base >> self.BUCKET_SHIFT
        last = (region.end - 1) >> self.BUCKET_SHIFT
        if last - first + 1 > self.MAX_BUCKETS_PER_REGION:
            self._oversize.append(region)
            return
        for b in range(first, last + 1):
            self._buckets.setdefault(b, []).append(region)

    def _on_mutate(self) -> None:
        self._buckets.clear()
        self._oversize.clear()
        for r in self._regions:
            self._insert_structures(r)

    def check(self, addr: int, size: int, flags: int) -> Decision:
        steps = 1  # the bucket hash
        bucket = self._buckets.get(addr >> self.BUCKET_SHIFT, ())
        for r in bucket:
            steps += 1
            if r.covers(addr, size):
                return r.permits(flags), steps
        for r in self._oversize:
            steps += 1
            if r.covers(addr, size):
                return r.permits(flags), steps
        return self._default_allow, steps


class CachedIndex:
    """A one-entry most-recent-region cache over any inner index.

    "a simple cache over the region data structure (as done in CARAT
    CAKE) might be able to do better than a logarithmic search in the
    common case" (§4.2).  The cache hit costs one comparison; mutation
    invalidates it.
    """

    supports_overlap = False
    pure_check = False  # check() updates the one-entry cache + hit counters

    def __init__(self, inner):
        self.inner = inner
        self._cached: Optional[Region] = None
        self.hits = 0
        self.misses = 0

    @property
    def name(self) -> str:
        return f"cached({self.inner.name})"

    @property
    def default_allow(self) -> bool:
        return self.inner.default_allow

    @default_allow.setter
    def default_allow(self, value: bool) -> None:
        self.inner.default_allow = value

    @property
    def epoch(self) -> int:
        return self.inner.epoch

    @property
    def owner(self):
        return self.inner.owner

    @owner.setter
    def owner(self, policy) -> None:
        self.inner.owner = policy

    def add(self, region: Region) -> int:
        self._cached = None
        return self.inner.add(region)

    def remove(self, base: int, length: int) -> bool:
        self._cached = None
        return self.inner.remove(base, length)

    def clear(self) -> None:
        self._cached = None
        self.inner.clear()

    def regions(self) -> list[Region]:
        return self.inner.regions()

    def __len__(self) -> int:
        return len(self.inner)

    def check(self, addr: int, size: int, flags: int) -> Decision:
        r = self._cached
        if r is not None and r.covers(addr, size):
            self.hits += 1
            return r.permits(flags), 1
        self.misses += 1
        allowed, steps = self.inner.check(addr, size, flags)
        # Cache the region that decided, if any (covering lookup).
        find = getattr(self.inner, "find", None)
        if find is not None:
            self._cached = find(addr, size)
        else:
            for region in self.inner.regions():
                if region.covers(addr, size):
                    self._cached = region
                    break
        return allowed, steps + 1


from .interval import IntervalRegionTable

STRUCTURES = {
    "linear": RegionTable,
    "interval": IntervalRegionTable,
    "sorted": SortedRegionIndex,
    "splay": SplayRegionIndex,
    "amq": AMQFilterIndex,
    "lsh": LSHBucketIndex,
}


def make_index(kind: str, default_allow: bool = False,
               cached: bool = False):
    """Factory for policy indexes by short name."""
    try:
        index = STRUCTURES[kind](default_allow=default_allow)
    except KeyError:
        raise ValueError(f"unknown policy structure {kind!r}; have {sorted(STRUCTURES)}")
    return CachedIndex(index) if cached else index


__all__ = [
    "AMQFilterIndex",
    "BloomFilter",
    "CachedIndex",
    "LSHBucketIndex",
    "OverlapError",
    "STRUCTURES",
    "SortedRegionIndex",
    "SplayRegionIndex",
    "make_index",
]
