"""Graph partitioning: split a CSR snapshot into disjoint per-shard subgraphs.

A partition splits the dense vertex-id space of an interned
:class:`~repro.graph.compact.CompactGraph` into ``num_shards`` disjoint owner
sets and builds one :class:`ShardState` per shard: a CSR over the shard's
owned vertices whose neighbour entries are *pre-encoded* so a loop over them
never pays a hash lookup to classify an edge —

* an entry ``e >= 0`` is the **local index** of an owned neighbour;
* an entry ``e < 0`` encodes the **ghost index** ``-e - 1`` of a remote
  neighbour (a cut edge).

Ghosts are the shard's view of the vertices it can see but does not own.
Per ghost the state records the global id, the owning shard, the global
degree and the reverse adjacency back into the owned vertices.

Each state also exposes the explicit boundary tables: ``boundary`` (owned
vertices with at least one remote neighbour) and ``cut_edges`` (per remote
shard, the sorted ``(owned, remote)`` global-id pairs — symmetric across
shard pairs by construction).

Partitioners are pluggable through :data:`PARTITIONERS`:

``hash``
    ``shard_of(v) = id(v) % num_shards``.  The interner's dense ids make this
    assignment free and uniform in expectation; it is the default.
``degree_balanced``
    Greedy longest-processing-time assignment: vertices in decreasing degree
    order, each to the currently lightest shard (load = degree + 1).  The LPT
    invariant bounds the spread: ``max_load - min_load <= max_degree + 1``.
``community``
    Locality-aware: deterministic label propagation finds communities, each
    community is carved into connected BFS blocks no larger than the ideal
    shard size, and the blocks are LPT-packed into shards by vertex count.
    Keeping community neighbourhoods co-resident minimises cut edges while
    the block cap keeps shard sizes balanced.

Partition quality is measured on every plan: :attr:`ShardPlan.cut_edge_count`
(each cut edge counted once), :attr:`ShardPlan.cut_edge_ratio` (cut over
total edges) and :attr:`ShardPlan.balance` (largest owned set over the ideal
even split).

No execution backend consumes these plans: the library's backends all run on
one machine over the whole graph, so nothing else in :mod:`repro` imports
this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.errors import ParameterError
from repro.graph.compact import CompactGraph


class ShardState:
    """One shard's subgraph: owned vertices, encoded CSR and ghost tables.

    Built by :func:`partition_compact_graph`; holds only plain ints, lists
    and dicts.
    """

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        owned: List[int],
        indptr: List[int],
        encoded: List[int],
        ghost_gvid: List[int],
        ghost_owner: List[int],
        ghost_deg: List[int],
        ghost_rev: List[List[int]],
    ) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        #: Owned global vertex ids, ascending (global id == tie-break rank on
        #: ordered snapshots, so ascending owned order is tie-break order).
        self.owned = owned
        #: Global id -> local index into the CSR below.
        self.local_of = {gvid: local for local, gvid in enumerate(owned)}
        self.indptr = indptr
        #: Encoded neighbour entries: ``>= 0`` local index, ``< 0`` ghost
        #: index encoded as ``-(ghost + 1)``.
        self.encoded = encoded
        self.degrees = [indptr[i + 1] - indptr[i] for i in range(len(owned))]
        #: Ghost tables: global id, owning shard, global degree and the
        #: reverse adjacency (local indices of owned neighbours) per ghost.
        self.ghost_gvid = ghost_gvid
        self.ghost_owner = ghost_owner
        self.ghost_deg = ghost_deg
        self.ghost_rev = ghost_rev
        self.ghost_of = {gvid: ghost for ghost, gvid in enumerate(ghost_gvid)}

    @property
    def num_owned(self) -> int:
        return len(self.owned)

    @property
    def num_ghosts(self) -> int:
        return len(self.ghost_gvid)

    @property
    def boundary(self) -> List[int]:
        """Owned global ids with at least one remote neighbour (ascending).

        Derived from the ghost reverse adjacency on demand.
        """
        locals_with_ghosts = set()
        for local_neighbours in self.ghost_rev:
            locals_with_ghosts.update(local_neighbours)
        return [self.owned[local] for local in sorted(locals_with_ghosts)]

    @property
    def cut_edges(self) -> Dict[int, List[Tuple[int, int]]]:
        """Per remote shard, the sorted ``(owned, remote)`` cut-edge pairs.

        Symmetric across shard pairs by construction (every cut edge appears
        in both endpoint shards, mirrored).  Derived on demand, like
        :attr:`boundary`.
        """
        table: Dict[int, List[Tuple[int, int]]] = {}
        for ghost, local_neighbours in enumerate(self.ghost_rev):
            owner = self.ghost_owner[ghost]
            remote = self.ghost_gvid[ghost]
            pairs = table.setdefault(owner, [])
            for local in local_neighbours:
                pairs.append((self.owned[local], remote))
        for pairs in table.values():
            pairs.sort()
        return table

    @property
    def num_cut_edges(self) -> int:
        """Cut edges incident to this shard (each counted once per shard)."""
        return sum(len(local_neighbours) for local_neighbours in self.ghost_rev)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardState(shard={self.shard_id}/{self.num_shards}, "
            f"n={self.num_owned}, ghosts={self.num_ghosts}, "
            f"boundary={len(self.boundary)}, cut={self.num_cut_edges})"
        )


class ShardPlan:
    """A full partition: the owner map plus one :class:`ShardState` per shard."""

    def __init__(
        self,
        num_shards: int,
        partitioner: str,
        shard_of: List[int],
        shards: List[ShardState],
        num_vertices: int,
        num_edges: int,
        ordered: bool,
    ) -> None:
        self.num_shards = num_shards
        self.partitioner = partitioner
        self.shard_of = shard_of
        self.shards = shards
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.ordered = ordered

    @property
    def cut_edge_count(self) -> int:
        """Cut edges in the plan, each counted once.

        Every cut edge appears in both endpoint shards' ghost tables, so the
        per-shard incident counts sum to exactly twice the true count.
        """
        return sum(state.num_cut_edges for state in self.shards) // 2

    @property
    def cut_edge_ratio(self) -> float:
        """Fraction of all edges that cross shards (0.0 on an empty graph)."""
        if self.num_edges == 0:
            return 0.0
        return self.cut_edge_count / self.num_edges

    @property
    def balance(self) -> float:
        """Largest owned set over the ideal even split (1.0 = perfect)."""
        if self.num_vertices == 0 or self.num_shards == 0:
            return 1.0
        ideal = self.num_vertices / self.num_shards
        return max(state.num_owned for state in self.shards) / ideal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPlan(shards={self.num_shards}, partitioner={self.partitioner!r}, "
            f"n={self.num_vertices}, m={self.num_edges}, "
            f"cut={self.cut_edge_count})"
        )


class HashPartitioner:
    """``id % num_shards`` — the interner's dense ids are a free shard key."""

    name = "hash"

    def assign(self, cgraph: CompactGraph, num_shards: int) -> List[int]:
        return [vid % num_shards for vid in range(cgraph.num_vertices)]


class DegreeBalancedPartitioner:
    """Greedy LPT assignment balancing total degree load across shards.

    Vertices are placed in decreasing degree order (ties by id, so the
    assignment is deterministic) onto the currently lightest shard (ties by
    shard id).  Per-vertex load is ``degree + 1`` so isolated vertices are
    spread too.  The classic LPT argument bounds the final spread by the
    heaviest single vertex: ``max_load - min_load <= max(degree) + 1``.
    """

    name = "degree_balanced"

    def assign(self, cgraph: CompactGraph, num_shards: int) -> List[int]:
        degrees = cgraph.degrees
        assignment = [0] * cgraph.num_vertices
        loads = [0] * num_shards
        for vid in sorted(range(cgraph.num_vertices), key=lambda v: (-degrees[v], v)):
            lightest = min(range(num_shards), key=lambda s: (loads[s], s))
            assignment[vid] = lightest
            loads[lightest] += degrees[vid] + 1
        return assignment


class CommunityPartitioner:
    """Locality-aware assignment: label propagation -> BFS blocks -> LPT.

    Three deterministic stages:

    1. **Label propagation** (asynchronous, ascending-id sweeps, ties to the
       smallest label, bounded at :attr:`max_sweeps`): each vertex adopts the
       most frequent label among its neighbours until a sweep changes
       nothing.  On graphs with community structure the surviving labels
       track the communities; on structureless graphs they degrade to
       something near-arbitrary but still deterministic.
    2. **BFS blocks**: each community is carved into connected blocks of at
       most ``ceil(n / num_shards)`` vertices by BFS from its smallest
       unvisited member.  The cap makes every block packable without
       overflowing a shard; BFS keeps each block internally connected so the
       carve adds few new cut edges.
    3. **LPT packing**: blocks in decreasing size (ties by smallest member
       id) onto the currently lightest shard by vertex count — community
       neighbourhoods stay co-resident, shard sizes stay balanced.
    """

    name = "community"

    #: Label-propagation sweep bound; LPA converges in a handful of sweeps
    #: on community-structured graphs and oscillations past this point no
    #: longer improve locality.
    max_sweeps = 10

    def assign(self, cgraph: CompactGraph, num_shards: int) -> List[int]:
        n = cgraph.num_vertices
        if n == 0:
            return []
        indptr = cgraph.indptr
        indices = cgraph.indices
        labels = list(range(n))
        for _ in range(self.max_sweeps):
            changed = False
            for vid in range(n):
                start, end = indptr[vid], indptr[vid + 1]
                if start == end:
                    continue
                counts: Dict[int, int] = {}
                for position in range(start, end):
                    label = labels[indices[position]]
                    counts[label] = counts.get(label, 0) + 1
                best = min(counts, key=lambda lab: (-counts[lab], lab))
                if best != labels[vid]:
                    labels[vid] = best
                    changed = True
            if not changed:
                break

        members: Dict[int, List[int]] = {}
        for vid in range(n):
            members.setdefault(labels[vid], []).append(vid)
        cap = -(-n // num_shards)  # ceil: the ideal shard size

        blocks: List[List[int]] = []
        for label in sorted(members, key=lambda lab: members[lab][0]):
            community = members[label]
            in_community = set(community)
            visited: set = set()
            for seed in community:
                if seed in visited:
                    continue
                block: List[int] = []
                queue = [seed]
                visited.add(seed)
                head = 0
                while head < len(queue) and len(block) < cap:
                    vid = queue[head]
                    head += 1
                    block.append(vid)
                    for position in range(indptr[vid], indptr[vid + 1]):
                        neighbour = indices[position]
                        if neighbour in in_community and neighbour not in visited:
                            visited.add(neighbour)
                            queue.append(neighbour)
                # Frontier vertices left in the queue at the cap are released
                # to seed the community's next block — they are adjacent to
                # this one, so the carve stays local.
                for vid in queue[head:]:
                    visited.discard(vid)
                blocks.append(block)

        assignment = [0] * n
        loads = [0] * num_shards
        order = sorted(range(len(blocks)), key=lambda b: (-len(blocks[b]), blocks[b][0]))
        for index in order:
            block = blocks[index]
            lightest = min(range(num_shards), key=lambda s: (loads[s], s))
            for vid in block:
                assignment[vid] = lightest
            loads[lightest] += len(block)
        return assignment


#: Registered partitioner policies, by name (extend to plug in your own).
PARTITIONERS = {
    HashPartitioner.name: HashPartitioner,
    DegreeBalancedPartitioner.name: DegreeBalancedPartitioner,
    CommunityPartitioner.name: CommunityPartitioner,
}


def get_partitioner(partitioner: Union[str, object]) -> object:
    """Resolve a partitioner policy: a name from :data:`PARTITIONERS` or an
    instance with ``name`` and ``assign(cgraph, num_shards)``."""
    if isinstance(partitioner, str):
        try:
            return PARTITIONERS[partitioner]()
        except KeyError:
            raise ParameterError(
                f"unknown partitioner {partitioner!r}; "
                f"expected one of {sorted(PARTITIONERS)}"
            ) from None
    if not hasattr(partitioner, "assign") or not hasattr(partitioner, "name"):
        raise ParameterError(
            "a partitioner must expose .name and .assign(cgraph, num_shards)"
        )
    return partitioner


def partition_compact_graph(
    cgraph: CompactGraph,
    num_shards: int,
    partitioner: Union[str, object] = HashPartitioner.name,
) -> ShardPlan:
    """Partition a CSR snapshot into ``num_shards`` :class:`ShardState`\\ s.

    Every vertex lands in exactly one shard; every edge appears in the CSR of
    both endpoint owners (as a local entry when the owner also owns the
    neighbour, as a ghost entry otherwise), so per-shard effective degrees
    equal true degrees and cut-edge tables come out symmetric.
    """
    if num_shards < 1:
        raise ParameterError("num_shards must be >= 1")
    policy = get_partitioner(partitioner)
    shard_of = policy.assign(cgraph, num_shards)
    if len(shard_of) != cgraph.num_vertices:
        raise ParameterError(
            f"partitioner {policy.name!r} assigned {len(shard_of)} vertices, "
            f"expected {cgraph.num_vertices}"
        )

    owned_lists: List[List[int]] = [[] for _ in range(num_shards)]
    for vid in range(cgraph.num_vertices):
        shard = shard_of[vid]
        if not 0 <= shard < num_shards:
            raise ParameterError(
                f"partitioner {policy.name!r} assigned vertex {vid} to "
                f"shard {shard} (valid: 0..{num_shards - 1})"
            )
        owned_lists[shard].append(vid)

    local_index: List[int] = [0] * cgraph.num_vertices
    for owned in owned_lists:
        for local, gvid in enumerate(owned):
            local_index[gvid] = local

    indptr_g = cgraph.indptr
    indices_g = cgraph.indices
    degrees_g = cgraph.degrees
    shards: List[ShardState] = []
    for shard in range(num_shards):
        owned = owned_lists[shard]
        indptr: List[int] = [0]
        encoded: List[int] = []
        ghost_gvid: List[int] = []
        ghost_owner: List[int] = []
        ghost_deg: List[int] = []
        ghost_rev: List[List[int]] = []
        ghost_of: Dict[int, int] = {}
        append = encoded.append
        for local, gvid in enumerate(owned):
            for position in range(indptr_g[gvid], indptr_g[gvid + 1]):
                neighbour = indices_g[position]
                owner = shard_of[neighbour]
                if owner == shard:
                    append(local_index[neighbour])
                else:
                    ghost = ghost_of.get(neighbour)
                    if ghost is None:
                        ghost = len(ghost_gvid)
                        ghost_of[neighbour] = ghost
                        ghost_gvid.append(neighbour)
                        ghost_owner.append(owner)
                        ghost_deg.append(degrees_g[neighbour])
                        ghost_rev.append([])
                    ghost_rev[ghost].append(local)
                    append(-ghost - 1)
            indptr.append(len(encoded))
        shards.append(
            ShardState(
                shard_id=shard,
                num_shards=num_shards,
                owned=owned,
                indptr=indptr,
                encoded=encoded,
                ghost_gvid=ghost_gvid,
                ghost_owner=ghost_owner,
                ghost_deg=ghost_deg,
                ghost_rev=ghost_rev,
            )
        )

    return ShardPlan(
        num_shards=num_shards,
        partitioner=policy.name,
        shard_of=shard_of,
        shards=shards,
        num_vertices=cgraph.num_vertices,
        num_edges=cgraph.num_edges,
        ordered=cgraph.ordered,
    )
