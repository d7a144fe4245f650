"""Cluster-aware hierarchical (HRC) search — the paper's proposed redesign.

The paper's evaluation ends with an explicit call to action: "the
current implementations of hierarchical approaches in CRAFT do not
take into account clusters ...  the evaluation presented in this paper
provides sufficient motivation to redesign these strategies to take
clustering information into account to reduce the search space"
(Section V).  This module implements that redesign.

The structural tree is rebuilt over *clusters* instead of variables:
each cluster is attached to the module/function where most of its
members are declared (clusters may legitimately cross function
boundaries — that was the original obstacle — so "home" is the
majority vote).  The descent then proceeds exactly like HR, but every
candidate configuration is cluster-complete by construction: no
simulated compile errors, no wasted evaluations, and the fallback
leaves are whole clusters rather than un-compilable single variables.

Registered as ``HRC`` / ``hierarchical-clustered``.
"""

from __future__ import annotations

from repro.core.variables import Granularity, SearchSpace
from repro.search.hierarchical import HierarchicalSearch
from repro.search.hierarchy import HierarchyNode, order_children

__all__ = ["ClusterHierarchicalSearch", "build_cluster_hierarchy"]


def build_cluster_hierarchy(space: SearchSpace, order=None) -> HierarchyNode:
    """Application → module → function → cluster tree.

    Node ``variables`` hold *cluster ids* (the locations of a
    cluster-granularity space); a cluster lives under the function
    that declares the majority of its members.  An optional shadow
    ``order`` arranges siblings least-sensitive-first (a group scores
    as its worst member cluster, a cluster as its worst member uid).
    """
    score_fn = None
    if order is not None:
        cid_scores = {
            cluster.cid: order.score_of(cluster.members)
            for cluster in space.clusters
        }
        def score_fn(cids):
            return max(cid_scores[cid] for cid in cids)
    variables = {v.uid: v for v in space.variables}
    placements: dict[tuple[str, str], list[str]] = {}
    for cluster in space.clusters:
        votes: dict[tuple[str, str], int] = {}
        for uid in cluster.members:
            var = variables[uid]
            key = (var.module, var.function)
            votes[key] = votes.get(key, 0) + 1
        home = max(sorted(votes), key=lambda key: votes[key])
        placements.setdefault(home, []).append(cluster.cid)

    root = HierarchyNode("<application>", frozenset(
        cluster.cid for cluster in space.clusters
    ))
    by_module: dict[str, dict[str, list[str]]] = {}
    for (module, function), cids in placements.items():
        by_module.setdefault(module, {})[function] = sorted(cids)

    module_nodes = []
    for module, functions in sorted(by_module.items()):
        module_members = frozenset(
            cid for cids in functions.values() for cid in cids
        )
        module_node = HierarchyNode(f"module:{module}", module_members)
        for function, cids in sorted(functions.items()):
            fn_node = HierarchyNode(f"function:{function}", frozenset(cids))
            if len(cids) > 1:
                fn_node.children = order_children([
                    HierarchyNode(f"cluster:{cid}", frozenset({cid}))
                    for cid in cids
                ], score_fn)
            module_node.children.append(fn_node)
        module_node.children = order_children(module_node.children, score_fn)
        if len(module_node.children) == 1 and \
                module_node.children[0].variables == module_node.variables:
            module_node = module_node.children[0]
        module_nodes.append(module_node)

    module_nodes = order_children(module_nodes, score_fn)
    if len(module_nodes) == 1 and module_nodes[0].variables == root.variables:
        root.children = module_nodes[0].children
    else:
        root.children = module_nodes
    return root


class ClusterHierarchicalSearch(HierarchicalSearch):
    """HR's structural descent, at cluster granularity."""

    strategy_name = "hierarchical-clustered"
    granularity = Granularity.CLUSTER

    def _hierarchy(self, space: SearchSpace, order) -> HierarchyNode:
        return build_cluster_hierarchy(space, order=order)
