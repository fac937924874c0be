"""Hierarchical resource graph: cluster → node → socket/core + GPU.

The matcher's cost model depends on the graph's shape — "R essentially
traverses the resource graph in its entirety for each job" (§5.2) — so
the graph exposes both cheap feasibility checks (free counts) and
explicit per-resource enumeration (which is what makes exhaustive
ranking expensive and is counted in
:class:`~repro.sched.matcher.MatchStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Allocation", "ResourceGraph", "summit_like", "lassen_like"]


class ResourceError(RuntimeError):
    """Raised on infeasible or inconsistent resource operations."""


@dataclass(frozen=True)
class Allocation:
    """A concrete placement: per-node core and GPU ids.

    ``items`` maps node id -> (core ids, gpu ids). Allocations are
    immutable; releasing goes through :meth:`ResourceGraph.release`.
    """

    items: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]

    @property
    def nnodes(self) -> int:
        return len(self.items)

    @property
    def ncores(self) -> int:
        return sum(len(cores) for _, cores, _ in self.items)

    @property
    def ngpus(self) -> int:
        return sum(len(gpus) for _, _, gpus in self.items)

    def node_ids(self) -> List[int]:
        return [nid for nid, _, _ in self.items]


def _low_ids(mask: int, limit: int) -> List[int]:
    """Up to ``limit`` set-bit positions of ``mask``, lowest first."""
    ids: List[int] = []
    while mask and len(ids) < limit:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _toggled(mask: int, ids: Sequence[int], limit: int, claim: bool,
             kind: str, node_id: int) -> int:
    """``mask`` with each of ``ids`` flipped: free → claimed when
    ``claim``, claimed → free otherwise. A repeated id fails its second
    flip, so it raises like a double claim."""
    for i in ids:
        if not 0 <= i < limit:
            raise ResourceError(f"{kind} {i} out of range on node {node_id}")
        bit = 1 << int(i)
        if bool(mask & bit) != claim:
            raise ResourceError(f"{kind} {i} on node {node_id} "
                                + ("already claimed" if claim else "double-released"))
        mask ^= bit
    return mask


class ResourceGraph:
    """The cluster: ``nnodes`` identical nodes plus aggregate accounting.

    Each node has ``cores_per_node`` CPU cores split evenly across
    ``nsockets`` sockets (socket s owns the contiguous core block
    ``[s*ncores/nsockets, (s+1)*ncores/nsockets)``) and
    ``gpus_per_node`` GPUs, GPU g sitting on socket
    ``g * nsockets // ngpus`` — close enough to Summit's topology to
    express the paper's affinity rules (simulation cores share cache
    with their GPU; analysis cores sit nearest the PCIe bus, i.e. lowest
    ids on the GPU's socket).

    Node state is held once, by the graph: per node a free-core and a
    free-GPU bitmask (bit i set means id i is free), the drained flag in
    ``_drained_mask``, and the free counts ``_fc``/``_fg`` as NumPy
    arrays so the matcher can run feasibility scans vectorized at
    4000-node scale. :meth:`claim` and :meth:`release` are the only
    writers of masks and counts, and they update both in one place;
    :meth:`drain`/:meth:`undrain` are the only writers of the drained
    flag. Per-node reads take a node id: :meth:`free_core_ids`,
    :meth:`free_gpu_ids` and :meth:`pick`.

    On top of the flat arrays the graph keeps a *partition index*:
    nodes are grouped into fixed-size partitions (``partition_size``)
    and each partition carries a max-free-core/max-free-GPU watermark
    plus a count of vacant (exclusive-feasible) nodes. A request that
    exceeds a partition's watermark cannot place anywhere inside it, so
    the partitioned scan paths (:meth:`first_feasible_partitioned`,
    :meth:`feasible_ids_partitioned`) skip the whole partition at the
    cost of one summary check — what keeps first-match sublinear at
    40k-node scale. Summaries are refreshed incrementally: claim/release
    touch only the partitions of the nodes involved (O(partition_size)
    per touched partition, vectorized).
    """

    def __init__(self, nnodes: int, cores_per_node: int, gpus_per_node: int,
                 nsockets: int = 2, partition_size: int = 256) -> None:
        if nnodes < 1:
            raise ResourceError("graph needs at least one node")
        if partition_size < 1:
            raise ResourceError("partition_size must be >= 1")
        if (cores_per_node < 1 or gpus_per_node < 0 or nsockets < 1
                or cores_per_node % nsockets):
            raise ResourceError(
                f"bad node shape: ncores={cores_per_node}, ngpus={gpus_per_node}, "
                f"nsockets={nsockets}"
            )
        self.cores_per_node = cores_per_node
        self.gpus_per_node = gpus_per_node
        self.nsockets = nsockets
        self._core_mask = [(1 << cores_per_node) - 1] * nnodes
        self._gpu_mask = [(1 << gpus_per_node) - 1] * nnodes
        per_socket = cores_per_node // nsockets
        socket_cores = [((1 << per_socket) - 1) << (s * per_socket) for s in range(nsockets)]
        # Cores on each GPU's socket: where pick() looks first.
        self._gpu_socket_cores = [socket_cores[g * nsockets // gpus_per_node]
                                  for g in range(gpus_per_node)]
        self._fc = np.full(nnodes, cores_per_node, dtype=np.int32)
        self._fg = np.full(nnodes, gpus_per_node, dtype=np.int32)
        self._drained_mask = np.zeros(nnodes, dtype=bool)
        # Vertices under one node: itself + sockets + cores + GPUs.
        self.node_subtree_size = 1 + nsockets + cores_per_node + gpus_per_node
        # --- partition index -------------------------------------------
        self.partition_size = partition_size
        self.npartitions = (nnodes + partition_size - 1) // partition_size
        self._part_max_fc = np.full(self.npartitions, cores_per_node, dtype=np.int32)
        self._part_max_fg = np.full(self.npartitions, gpus_per_node, dtype=np.int32)
        # Vacant (fully free, undrained) nodes per partition: exclusive
        # requests can only land on these.
        self._part_nvacant = np.array(
            [self._partition_bounds(p)[1] - self._partition_bounds(p)[0]
             for p in range(self.npartitions)], dtype=np.int32)

    def __len__(self) -> int:
        return len(self._core_mask)

    # --- per-node reads ----------------------------------------------------

    def free_core_ids(self, node_id: int) -> List[int]:
        return _low_ids(self._core_mask[node_id], self.cores_per_node)

    def free_gpu_ids(self, node_id: int) -> List[int]:
        return _low_ids(self._gpu_mask[node_id], self.gpus_per_node)

    def pick(self, node_id: int, ncores: int, ngpus: int) -> Tuple[List[int], List[int]]:
        """Choose lowest-id free cores/GPUs on one node with GPU-socket affinity.

        When GPUs are requested, cores are taken from the first GPU's
        socket when possible (the "share cache with the simulation" rule);
        remaining demand falls back to the lowest free cores elsewhere.
        """
        if (self._drained_mask[node_id] or self._fc[node_id] < ncores
                or self._fg[node_id] < ngpus):
            raise ResourceError(f"node {node_id} cannot fit {ncores}c/{ngpus}g")
        gpu_ids = _low_ids(self._gpu_mask[node_id], ngpus)
        free = self._core_mask[node_id]
        core_ids: List[int] = []
        if gpu_ids:
            socket = self._gpu_socket_cores[gpu_ids[0]]
            core_ids = _low_ids(free & socket, ncores)
            free &= ~socket
        if len(core_ids) < ncores:
            core_ids += _low_ids(free, ncores - len(core_ids))
        return core_ids, gpu_ids

    # --- aggregate accounting (used by the occupancy profiler) -----------------

    @property
    def total_cores(self) -> int:
        return len(self) * self.cores_per_node

    @property
    def total_gpus(self) -> int:
        return len(self) * self.gpus_per_node

    @property
    def free_cores(self) -> int:
        return int(self._fc[~self._drained_mask].sum())

    @property
    def free_gpus(self) -> int:
        return int(self._fg[~self._drained_mask].sum())

    @property
    def used_cores(self) -> int:
        return self.total_cores - int(self._fc.sum())

    @property
    def used_gpus(self) -> int:
        return self.total_gpus - int(self._fg.sum())

    def total_vertices(self) -> int:
        """All vertices in the graph (the matcher's worst-case traversal)."""
        return 1 + len(self) * self.node_subtree_size

    # --- partition index maintenance ------------------------------------

    def partition_of(self, node_id: int) -> int:
        return node_id // self.partition_size

    def _partition_bounds(self, p: int) -> Tuple[int, int]:
        lo = p * self.partition_size
        return lo, min(lo + self.partition_size, len(self))

    def _refresh_partition(self, p: int) -> None:
        """Recompute one partition's summaries from the flat arrays.

        Drained nodes count as having -1 free of everything so they can
        never satisfy a watermark (or look vacant).
        """
        lo, hi = self._partition_bounds(p)
        drained = self._drained_mask[lo:hi]
        fc = np.where(drained, -1, self._fc[lo:hi])
        fg = np.where(drained, -1, self._fg[lo:hi])
        self._part_max_fc[p] = fc.max()
        self._part_max_fg[p] = fg.max()
        self._part_nvacant[p] = np.count_nonzero(
            (fc == self.cores_per_node) & (fg == self.gpus_per_node)
        )

    def partition_feasible(self, p: int, ncores: int, ngpus: int,
                           exclusive: bool = False) -> bool:
        """Watermark check: could *any* node in partition ``p`` host one
        unit of the request? False means the whole partition is safely
        skippable."""
        if exclusive:
            return bool(self._part_nvacant[p] > 0
                        and self.cores_per_node >= ncores
                        and self.gpus_per_node >= ngpus)
        return bool(self._part_max_fc[p] >= ncores and self._part_max_fg[p] >= ngpus)

    # --- allocation lifecycle ------------------------------------------------

    def claim(self, placement: Sequence[Tuple[int, Sequence[int], Sequence[int]]]) -> Allocation:
        """Claim an explicit placement; all-or-nothing.

        Every id is checked before anything changes: a node or resource
        id out of range, an id repeated within the placement, or one
        already claimed raises :class:`ResourceError` and leaves the
        graph untouched.
        """
        self._flip(placement, claim=True)
        return Allocation(
            items=tuple((nid, tuple(c), tuple(g)) for nid, c, g in placement)
        )

    def release(self, alloc: Allocation) -> None:
        """Free an allocation; all-or-nothing like :meth:`claim`."""
        self._flip(alloc.items, claim=False)

    def _flip(self, items, claim: bool) -> None:
        """Toggle the ids in ``items`` from free to claimed (or back).

        New masks are built per node first and stored only once every id
        checks out, so a bad id anywhere leaves masks, counts and
        watermarks as they were.
        """
        masks = {}
        for node_id, cores, gpus in items:
            if not 0 <= node_id < len(self):
                raise ResourceError(f"node {node_id} out of range")
            cmask, gmask = masks.get(node_id) or (self._core_mask[node_id],
                                                  self._gpu_mask[node_id])
            masks[node_id] = (
                _toggled(cmask, cores, self.cores_per_node, claim, "core", node_id),
                _toggled(gmask, gpus, self.gpus_per_node, claim, "gpu", node_id),
            )
        for node_id, (cmask, gmask) in masks.items():
            self._core_mask[node_id] = cmask
            self._gpu_mask[node_id] = gmask
            self._fc[node_id] = cmask.bit_count()
            self._fg[node_id] = gmask.bit_count()
        for p in {nid // self.partition_size for nid in masks}:
            self._refresh_partition(p)

    # --- vectorized feasibility (the matcher's fast path) ------------------

    def feasible_mask(self, ncores: int, ngpus: int, exclusive: bool = False) -> np.ndarray:
        """Boolean mask of nodes that can host one unit of the request.

        Exclusive mode means "the whole node", but the node must still
        be *big enough*: a vacant node with fewer cores/GPUs than the
        per-node request would silently under-provision the job, so it
        is not feasible.
        """
        if exclusive:
            if ncores > self.cores_per_node or ngpus > self.gpus_per_node:
                return np.zeros(len(self), dtype=bool)
            mask = (self._fc == self.cores_per_node) & (self._fg == self.gpus_per_node)
        else:
            mask = (self._fc >= ncores) & (self._fg >= ngpus)
        return mask & ~self._drained_mask

    def feasible_ids(self, ncores: int, ngpus: int, exclusive: bool = False) -> np.ndarray:
        """Feasible node ids in ascending (low-id-first) order."""
        return np.nonzero(self.feasible_mask(ncores, ngpus, exclusive))[0]

    def first_feasible(
        self,
        start: int,
        need: int,
        ncores: int,
        ngpus: int,
        exclusive: bool = False,
        chunk: int = 64,
    ) -> Tuple[List[int], int]:
        """First ``need`` feasible nodes scanning circularly from ``start``.

        Returns (node ids, nodes scanned). The scan proceeds in chunks
        and stops as soon as enough nodes are found, which is exactly
        what makes the first-match policy cheap on a lightly loaded
        machine.
        """
        n = len(self)
        if exclusive and (ncores > self.cores_per_node or ngpus > self.gpus_per_node):
            return [], 0
        found: List[int] = []
        scanned = 0
        pos = start % n
        while scanned < n and len(found) < need:
            width = min(chunk, n - scanned)
            idx = (pos + np.arange(width)) % n
            if exclusive:
                ok = (self._fc[idx] == self.cores_per_node) & (
                    self._fg[idx] == self.gpus_per_node
                )
            else:
                ok = (self._fc[idx] >= ncores) & (self._fg[idx] >= ngpus)
            ok &= ~self._drained_mask[idx]
            hits = idx[ok]
            for h in hits:
                found.append(int(h))
                if len(found) >= need:
                    # Count only the positions actually inspected up to the hit.
                    offset = int(np.nonzero(idx == h)[0][0]) + 1
                    return found, scanned + offset
            scanned += width
            pos = (pos + width) % n
        return found, scanned

    # --- partitioned feasibility (the 40k-node fast path) ------------------

    def first_feasible_partitioned(
        self,
        start: int,
        need: int,
        ncores: int,
        ngpus: int,
        exclusive: bool = False,
    ) -> Tuple[List[int], int, int]:
        """Like :meth:`first_feasible`, but watermark-skipping.

        Walks the same circular node order from ``start`` but in
        partition-aligned segments: a segment whose partition watermark
        cannot satisfy the request is skipped wholesale (its nodes are
        never inspected). Returns ``(node ids, nodes scanned,
        partitions skipped)`` — the ids are identical to what the flat
        scan would return, because the skip rule only drops partitions
        with no feasible node at all.
        """
        n = len(self)
        if exclusive and (ncores > self.cores_per_node or ngpus > self.gpus_per_node):
            return [], 0, 0
        psize = self.partition_size
        start %= n
        found: List[int] = []
        scanned = 0
        skipped = 0
        # Circular walk [start, n) ++ [0, start), cut at partition edges.
        pos, end = start, start + n
        while pos < end and len(found) < need:
            lo = pos % n
            p = lo // psize
            seg_hi = min(min((p + 1) * psize, n) - lo, end - pos)
            pos += seg_hi
            hi = lo + seg_hi
            if not self.partition_feasible(p, ncores, ngpus, exclusive):
                skipped += 1
                continue
            if exclusive:
                ok = (self._fc[lo:hi] == self.cores_per_node) & (
                    self._fg[lo:hi] == self.gpus_per_node
                )
            else:
                ok = (self._fc[lo:hi] >= ncores) & (self._fg[lo:hi] >= ngpus)
            ok &= ~self._drained_mask[lo:hi]
            for h in np.nonzero(ok)[0]:
                found.append(lo + int(h))
                if len(found) >= need:
                    return found, scanned + int(h) + 1, skipped
            scanned += hi - lo
        return found, scanned, skipped

    def feasible_ids_partitioned(
        self, ncores: int, ngpus: int, exclusive: bool = False
    ) -> Tuple[np.ndarray, int, int]:
        """Ascending feasible node ids, examining only partitions whose
        watermark can satisfy the request.

        Returns ``(ids, nodes examined, partitions skipped)``; the ids
        equal :meth:`feasible_ids` output exactly.
        """
        if exclusive and (ncores > self.cores_per_node or ngpus > self.gpus_per_node):
            return np.empty(0, dtype=np.int64), 0, 0
        # One watermark mask over all partitions, expanded to nodes: the
        # node test runs as one vectorized pass, and the skip accounting
        # comes from the partition mask alone.
        if exclusive:
            part_ok = self._part_nvacant > 0
        else:
            part_ok = (self._part_max_fc >= ncores) & (self._part_max_fg >= ngpus)
        n = len(self)
        psize = self.partition_size
        mask = self.feasible_mask(ncores, ngpus, exclusive)
        mask &= np.repeat(part_ok, psize)[:n]
        kept = int(np.count_nonzero(part_ok))
        examined = kept * psize
        if part_ok[-1]:
            examined -= self.npartitions * psize - n  # the short last partition
        return np.nonzero(mask)[0], examined, self.npartitions - kept

    # --- resilience -------------------------------------------------------------

    def drain(self, node_id: int) -> None:
        """Mark a node failed/draining: no new work lands on it (§4.4)."""
        self._drained_mask[node_id] = True
        self._refresh_partition(self.partition_of(node_id))

    def undrain(self, node_id: int) -> None:
        self._drained_mask[node_id] = False
        self._refresh_partition(self.partition_of(node_id))

    def drained_nodes(self) -> List[int]:
        return np.flatnonzero(self._drained_mask).tolist()


def summit_like(nnodes: int, partition_size: int = 256) -> ResourceGraph:
    """A Summit-shaped partition: 2×22-core POWER9 + 6 V100 per node."""
    return ResourceGraph(nnodes, cores_per_node=44, gpus_per_node=6, nsockets=2,
                         partition_size=partition_size)


def lassen_like(nnodes: int, partition_size: int = 256) -> ResourceGraph:
    """A Lassen/Sierra-shaped partition: 2×22-core + 4 V100 per node."""
    return ResourceGraph(nnodes, cores_per_node=44, gpus_per_node=4, nsockets=2,
                         partition_size=partition_size)
