"""Hierarchical resource graph: cluster → node → socket/core + GPU.

The matcher's cost model depends on the graph's shape — "R essentially
traverses the resource graph in its entirety for each job" (§5.2) — so
nodes expose both cheap feasibility checks (free counts) and explicit
per-resource enumeration (which is what makes exhaustive ranking
expensive and is counted in :class:`~repro.sched.matcher.MatchStats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Node", "Allocation", "ResourceGraph", "summit_like", "lassen_like"]


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


class Node:
    """One compute node: ``ncores`` CPU cores and ``ngpus`` GPUs.

    Cores are split evenly across ``nsockets`` sockets; core ids are
    global within the node (0..ncores-1), socket s owning the contiguous
    block ``[s*ncores/nsockets, (s+1)*ncores/nsockets)``. GPUs are
    associated with the socket ``gpu_id * nsockets // ngpus`` — close
    enough to Summit's topology to express the paper's affinity rules
    (simulation cores share cache with their GPU; analysis cores sit
    nearest the PCIe bus, i.e. lowest ids on the GPU's socket).
    """

    __slots__ = ("node_id", "ncores", "ngpus", "nsockets", "_core_free", "_gpu_free",
                 "free_cores", "free_gpus", "drained")

    def __init__(self, node_id: int, ncores: int, ngpus: int, nsockets: int = 2) -> None:
        if ncores < 1 or ngpus < 0 or nsockets < 1 or ncores % nsockets:
            raise ResourceError(
                f"bad node shape: ncores={ncores}, ngpus={ngpus}, nsockets={nsockets}"
            )
        self.node_id = node_id
        self.ncores = ncores
        self.ngpus = ngpus
        self.nsockets = nsockets
        self._core_free = [True] * ncores
        self._gpu_free = [True] * ngpus
        self.free_cores = ncores
        self.free_gpus = ngpus
        self.drained = False

    # --- feasibility (cheap, count-based) -------------------------------

    def can_fit(self, ncores: int, ngpus: int) -> bool:
        return (not self.drained) and self.free_cores >= ncores and self.free_gpus >= ngpus

    @property
    def vacant(self) -> bool:
        return self.free_cores == self.ncores and self.free_gpus == self.ngpus

    # --- enumeration (explicit, counted by the matcher) -------------------

    def subtree_size(self) -> int:
        """Vertices under this node: sockets + cores + GPUs + itself."""
        return 1 + self.nsockets + self.ncores + self.ngpus

    def free_core_ids(self) -> List[int]:
        return [i for i, free in enumerate(self._core_free) if free]

    def free_gpu_ids(self) -> List[int]:
        return [i for i, free in enumerate(self._gpu_free) if free]

    def socket_of_core(self, core_id: int) -> int:
        return core_id // (self.ncores // self.nsockets)

    def socket_of_gpu(self, gpu_id: int) -> int:
        return gpu_id * self.nsockets // max(self.ngpus, 1)

    # --- claim/release ------------------------------------------------------

    def pick(self, ncores: int, ngpus: int) -> Tuple[List[int], List[int]]:
        """Choose lowest-id free cores/GPUs with GPU-socket affinity.

        When GPUs are requested, cores are taken from the first GPU's
        socket when possible (the "share cache with the simulation" rule);
        remaining demand falls back to any free core.
        """
        if not self.can_fit(ncores, ngpus):
            raise ResourceError(f"node {self.node_id} cannot fit {ncores}c/{ngpus}g")
        gpu_ids = self.free_gpu_ids()[:ngpus]
        core_ids: List[int] = []
        if gpu_ids:
            want_socket = self.socket_of_gpu(gpu_ids[0])
            same = [c for c in self.free_core_ids() if self.socket_of_core(c) == want_socket]
            core_ids = same[:ncores]
        if len(core_ids) < ncores:
            chosen = set(core_ids)
            for c in self.free_core_ids():
                if len(core_ids) >= ncores:
                    break
                if c not in chosen:
                    core_ids.append(c)
                    chosen.add(c)
        return core_ids, gpu_ids

    def claim(self, core_ids: Sequence[int], gpu_ids: Sequence[int]) -> None:
        for c in core_ids:
            if not self._core_free[c]:
                raise ResourceError(f"core {c} on node {self.node_id} already claimed")
        for g in gpu_ids:
            if not self._gpu_free[g]:
                raise ResourceError(f"gpu {g} on node {self.node_id} already claimed")
        for c in core_ids:
            self._core_free[c] = False
        for g in gpu_ids:
            self._gpu_free[g] = False
        self.free_cores -= len(core_ids)
        self.free_gpus -= len(gpu_ids)

    def release(self, core_ids: Sequence[int], gpu_ids: Sequence[int]) -> None:
        for c in core_ids:
            if self._core_free[c]:
                raise ResourceError(f"core {c} on node {self.node_id} double-released")
        for g in gpu_ids:
            if self._gpu_free[g]:
                raise ResourceError(f"gpu {g} on node {self.node_id} double-released")
        for c in core_ids:
            self._core_free[c] = True
        for g in gpu_ids:
            self._gpu_free[g] = True
        self.free_cores += len(core_ids)
        self.free_gpus += len(gpu_ids)


class ResourceGraph:
    """The cluster: an ordered list of nodes plus aggregate accounting.

    Per-node free counts are mirrored in NumPy arrays so the matcher can
    run feasibility scans vectorized at 4000-node scale. The arrays are
    maintained only by the graph-level operations (:meth:`claim`,
    :meth:`release`, :meth:`drain`); mutating a :class:`Node` directly
    bypasses them and is unsupported.

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
        self.nodes = [Node(i, cores_per_node, gpus_per_node, nsockets) for i in range(nnodes)]
        self.cores_per_node = cores_per_node
        self.gpus_per_node = gpus_per_node
        self._fc = np.full(nnodes, cores_per_node, dtype=np.int32)
        self._fg = np.full(nnodes, gpus_per_node, dtype=np.int32)
        self._drained_mask = np.zeros(nnodes, dtype=bool)
        self.node_subtree_size = self.nodes[0].subtree_size()
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
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    # --- aggregate accounting (used by the occupancy profiler) -----------------

    @property
    def total_cores(self) -> int:
        return len(self.nodes) * self.cores_per_node

    @property
    def total_gpus(self) -> int:
        return len(self.nodes) * self.gpus_per_node

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
        return 1 + sum(n.subtree_size() for n in self.nodes)

    # --- partition index maintenance ------------------------------------

    def partition_of(self, node_id: int) -> int:
        return node_id // self.partition_size

    def _partition_bounds(self, p: int) -> Tuple[int, int]:
        lo = p * self.partition_size
        return lo, min(lo + self.partition_size, len(self.nodes))

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

    def _refresh_partitions_of(self, node_ids) -> None:
        for p in {nid // self.partition_size for nid in node_ids}:
            self._refresh_partition(p)

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
        """Claim an explicit placement; all-or-nothing."""
        claimed: List[Tuple[int, Sequence[int], Sequence[int]]] = []
        try:
            for node_id, cores, gpus in placement:
                self.nodes[node_id].claim(cores, gpus)
                claimed.append((node_id, cores, gpus))
        except ResourceError:
            for node_id, cores, gpus in claimed:
                self.nodes[node_id].release(cores, gpus)
            raise
        for node_id, cores, gpus in placement:
            self._fc[node_id] -= len(cores)
            self._fg[node_id] -= len(gpus)
        self._refresh_partitions_of(nid for nid, _, _ in placement)
        return Allocation(
            items=tuple((nid, tuple(c), tuple(g)) for nid, c, g in placement)
        )

    def release(self, alloc: Allocation) -> None:
        for node_id, cores, gpus in alloc.items:
            self.nodes[node_id].release(cores, gpus)
            self._fc[node_id] += len(cores)
            self._fg[node_id] += len(gpus)
        self._refresh_partitions_of(nid for nid, _, _ in alloc.items)

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
                return np.zeros(len(self.nodes), dtype=bool)
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
        n = len(self.nodes)
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
        n = len(self.nodes)
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
        n = len(self.nodes)
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
        self.nodes[node_id].drained = True
        self._drained_mask[node_id] = True
        self._refresh_partition(self.partition_of(node_id))

    def undrain(self, node_id: int) -> None:
        self.nodes[node_id].drained = False
        self._drained_mask[node_id] = False
        self._refresh_partition(self.partition_of(node_id))

    def drained_nodes(self) -> List[int]:
        return [n.node_id for n in self.nodes if n.drained]


def summit_like(nnodes: int, partition_size: int = 256) -> ResourceGraph:
    """A Summit-shaped partition: 2×22-core POWER9 + 6 V100 per node."""
    return ResourceGraph(nnodes, cores_per_node=44, gpus_per_node=6, nsockets=2,
                         partition_size=partition_size)


def lassen_like(nnodes: int, partition_size: int = 256) -> ResourceGraph:
    """A Lassen/Sierra-shaped partition: 2×22-core + 4 V100 per node."""
    return ResourceGraph(nnodes, cores_per_node=44, gpus_per_node=4, nsockets=2,
                         partition_size=partition_size)
