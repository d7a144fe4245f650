"""Hierarchical (HR) search.

"Use program structure information (e.g., modules or functions) to
search for larger groups of variables that can be replaced, falling
back to lower-level components and eventually to individual variables
if necessary" (paper Section II-B).

The search accumulates conversions: a structural group that passes
(on top of everything already converted) is kept wholesale; a failing
group is refined into its children.  The descent repeats until a full
pass converts nothing new — interactions between groups mean a
variable that failed earlier can succeed later, which inflates the
evaluation count exactly as the paper's Table III shows for HR.

Because the walk ignores clusters, many candidate configurations split
a Typeforge cluster and die with a simulated compile error — the
wasted effort the paper calls out in its evaluation.
"""

from __future__ import annotations

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.types import PrecisionConfig
from repro.core.variables import Granularity, SearchSpace
from repro.search.base import SearchStrategy
from repro.search.hierarchy import HierarchyNode, build_hierarchy

__all__ = ["HierarchicalSearch"]


class HierarchicalSearch(SearchStrategy):
    """Structural descent with accumulation, at variable granularity."""

    strategy_name = "hierarchical"
    granularity = Granularity.VARIABLE

    def __init__(self, max_passes: int = 4) -> None:
        self.max_passes = max_passes

    def describe(self) -> dict:
        info = super().describe()
        info["max_passes"] = self.max_passes
        return info

    def _hierarchy(self, space: SearchSpace, order) -> HierarchyNode:
        """The structural tree the descent walks (variables here)."""
        return build_hierarchy(space, order=order)

    def _search(self, evaluator: ConfigurationEvaluator) -> PrecisionConfig | None:
        space = self.space(evaluator)
        root = self._hierarchy(space, getattr(evaluator, "location_order", None))
        converted: set[str] = set()

        def try_group(group: frozenset[str]) -> bool:
            candidate = converted | group
            trial = evaluator.evaluate(self._lower(space, sorted(candidate)))
            return trial.passed

        def visit(node: HierarchyNode) -> None:
            pending = node.variables - converted
            if not pending:
                return
            if try_group(pending):
                converted.update(pending)
                return
            for child in node.children:
                visit(child)

        for _ in range(self.max_passes):
            before = len(converted)
            visit(root)
            if len(converted) == before:
                break

        if not converted:
            return None
        final = evaluator.evaluate(self._lower(space, sorted(converted)))
        return final.config if final.passed else None
