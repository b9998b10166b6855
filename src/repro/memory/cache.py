"""Set-associative cache with true-LRU replacement.

This is the timing-model cache: it tracks tags only (data values come from
the functional oracle) and exposes probe/install primitives that the
hierarchy composes with MSHR-style pending-fill tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("size must be a multiple of assoc * line size")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


#: A tag-store image: ``(lo, hi, tags)`` runs of sets ``[lo, hi)`` that
#: all hold ``tags``, MRU first.  :func:`fill_image` builds one and
#: :meth:`SetAssocCache.install_image` installs it.
CacheImage = Tuple[Tuple[int, int, Tuple[int, ...]], ...]


def fill_image(config: CacheConfig,
               ranges: Iterable[Tuple[int, int]]) -> CacheImage:
    """What an empty ``config`` cache holds after installing, in order, every
    ``addr`` in ``range(start, start + size, line_bytes)`` of each
    ``(start, size)`` in ``ranges``.

    True LRU leaves each set its last ``assoc`` distinct installed tags,
    most recent first.  A range of ``count`` lines from line ``first``
    gives every set a run of consecutive tags: the run starts one tag
    later in the sets below ``first``'s set, and is one line longer in
    the ``count % num_sets`` sets from ``first``'s set on (cyclically).
    So all sets between two of those boundaries hold the same tags, and
    the image takes a few steps per boundary and range, not one per line.
    """
    line_shift = config.line_bytes.bit_length() - 1
    num_sets = config.num_sets
    set_mask = num_sets - 1
    set_bits = num_sets.bit_length() - 1
    spans = []  # per range: (first set, first tag, run length, extra)
    cuts = {0, num_sets}
    for start, size in ranges:
        count = len(range(start, start + size, config.line_bytes))
        if count:
            first = start >> line_shift
            spans.append((first & set_mask, first >> set_bits,
                          count >> set_bits, count & set_mask))
            cuts.update((first & set_mask, (first + count) & set_mask))
    bounds = sorted(cuts)
    assoc = config.assoc
    image = []
    for lo, hi in zip(bounds, bounds[1:]):
        tags: List[int] = []
        for head, tag, length, extra in reversed(spans):
            base = tag + (lo < head)
            n = length + ((lo - head) & set_mask < extra)
            for t in reversed(range(base, base + n)):
                if t not in tags:
                    tags.append(t)
                    if len(tags) == assoc:
                        break
            if len(tags) == assoc:
                break
        if tags:
            image.append((lo, hi, tuple(tags)))
    return tuple(image)


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """Tag store of one cache level (LRU, write-allocate, no dirty state).

    Writebacks carry no timing in this model: the paper's evaluation is
    latency-bound (300-cycle memory) and its bandwidth model is a simple
    8 B/cycle fill bus, which the hierarchy models at the memory side.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._tag_shift = config.num_sets.bit_length() - 1
        # Each set is an MRU-first list of tags.
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]

    def __setstate__(self, state: dict) -> None:
        # Warm checkpoints pickled by older versions lack ``_tag_shift``.
        self.__dict__.update(state)
        self._tag_shift = self.config.num_sets.bit_length() - 1

    def line_addr(self, addr: int) -> int:
        """The line-aligned address containing ``addr``."""
        return addr >> self._line_shift << self._line_shift

    def _locate(self, addr: int):
        line = addr >> self._line_shift
        return self._sets[line & self._set_mask], line >> self._tag_shift

    def probe(self, addr: int) -> bool:
        """Hit test *without* LRU update or stats (used by prefetch filters)."""
        ways, tag = self._locate(addr)
        return tag in ways

    def lookup(self, addr: int) -> bool:
        """Hit test with LRU update but *no* stats.

        The hierarchy uses this and accounts misses itself so that accesses
        merged into an outstanding fill (MSHR hits) are not double-counted
        as misses.
        """
        ways, tag = self._locate(addr)
        try:
            i = ways.index(tag)
        except ValueError:
            return False
        if i:
            ways.insert(0, ways.pop(i))
        return True

    def access(self, addr: int) -> bool:
        """Standalone demand access: returns hit, updates LRU and stats."""
        self.stats.accesses += 1
        if self.lookup(addr):
            return True
        self.stats.misses += 1
        return False

    def install(self, addr: int) -> Optional[int]:
        """Fill the line containing ``addr``; returns the evicted line address
        (or None).  Installing an already-present line just refreshes LRU."""
        ways, tag = self._locate(addr)
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            return None
        ways.insert(0, tag)
        if len(ways) > self.config.assoc:
            victim_tag = ways.pop()
            set_index = (addr >> self._line_shift) & self._set_mask
            victim_line = victim_tag << self._tag_shift | set_index
            return victim_line << self._line_shift
        return None

    def install_image(self, image: CacheImage) -> None:
        """Install an image's lines as :meth:`install` would, one by one in
        the order they were recorded, over whatever the cache holds."""
        assoc = self.config.assoc
        for lo, hi, tags in image:
            for ways in self._sets[lo:hi]:
                if ways:
                    ways[:] = (list(tags) + [tag for tag in ways
                                             if tag not in tags])[:assoc]
                else:
                    ways.extend(tags)

    def invalidate_all(self) -> None:
        """Drop every line (used by tests and phase-reset experiments)."""
        for ways in self._sets:
            ways.clear()
