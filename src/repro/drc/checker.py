"""Design-rule checker for rectilinear layout patterns.

The paper validates legality with KLayout; this module provides an equivalent
checker for the three rules of Fig. 3 (space, width, area) specialised to
axis-aligned rectilinear layouts.  All checks are evaluated on the canonical
squish grid of the layout, where they are exact:

* **Width**: every maximal run of shape cells along a row (columns along a
  column) has physical length >= ``width_min``.
* **Space**: every maximal run of empty cells *between two shapes* along a
  row / column has physical length >= ``space_min``; additionally,
  corner-touching shapes (bow-ties) are reported because their diagonal
  spacing is zero.
* **Area**: every 4-connected polygon's area lies in ``[area_min, area_max]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import (
    Layout,
    connected_components,
    has_bowtie,
    interior_runs_2d,
    runs_2d,
    validate_grid,
)
from ..legalization.rules import DesignRules
from ..squish import SquishPattern, canonicalize


@dataclass(frozen=True)
class Violation:
    """A single design-rule violation."""

    rule: str          # "width" | "space" | "area" | "bowtie"
    axis: str          # "x", "y" or "-" when not directional
    location: tuple[int, int]
    measured: float
    required: float

    def __str__(self) -> str:
        return (
            f"{self.rule} violation at {self.location} along {self.axis}: "
            f"measured {self.measured:.1f}, required {self.required:.1f}"
        )


@dataclass
class DRCReport:
    """Result of checking one pattern."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def count(self, rule: "str | None" = None) -> int:
        if rule is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.rule == rule)


class DesignRuleChecker:
    """Checks layouts / squish patterns against a :class:`DesignRules` set."""

    def __init__(self, rules: DesignRules) -> None:
        self.rules = rules

    # ------------------------------------------------------------------ #
    def check_pattern(self, pattern: SquishPattern) -> DRCReport:
        """Check a squish pattern (canonicalised first so runs are maximal)."""
        return self.check_canonical(canonicalize(pattern))

    def check_canonical(self, canonical: SquishPattern) -> DRCReport:
        """Check a pattern already in canonical form (see :func:`canonicalize`).

        Runs are only maximal on the canonical grid; a pattern that still has
        mergeable rows or columns can report false width/space violations.
        """
        return self._check_grid(canonical.topology, canonical.delta_x, canonical.delta_y)

    def check_layout(self, layout: Layout) -> DRCReport:
        """Check a layout clip by re-squishing it onto its scan-line grid."""
        grid, dx, dy = layout.occupancy_grid()
        return self._check_grid(grid, dx, dy)

    def is_legal(self, pattern: "SquishPattern | Layout") -> bool:
        """Convenience wrapper returning only the verdict."""
        if isinstance(pattern, SquishPattern):
            return self.check_pattern(pattern).clean
        return self.check_layout(pattern).clean

    # ------------------------------------------------------------------ #
    # batched checking
    # ------------------------------------------------------------------ #
    def check_batch(
        self,
        patterns: "list[SquishPattern] | list[Layout]",
        canonical: bool = False,
    ) -> list[DRCReport]:
        """Check a whole pattern library; one report per pattern, in order.

        Pattern libraries are checked far more often than single patterns
        (every Table I row, every legalisation run), so this is the
        canonical entry point for library-level checking — callers get the
        verdicts in one call (see :meth:`legality_mask` /
        :meth:`legal_subset`) instead of hand-rolled loops.  With
        ``canonical=True`` the squish patterns are taken to be in canonical
        form already (the generation graph canonicalises each pattern once
        and shares the result) and are not canonicalised again.
        """
        check = self.check_canonical if canonical else self.check_pattern
        reports: list[DRCReport] = []
        for pattern in patterns:
            if isinstance(pattern, SquishPattern):
                reports.append(check(pattern))
            else:
                reports.append(self.check_layout(pattern))
        return reports

    def legality_mask(
        self,
        patterns: "list[SquishPattern] | list[Layout]",
        canonical: bool = False,
    ) -> np.ndarray:
        """Boolean verdict per pattern (``True`` = DRC-clean), batch order.

        ``canonical`` is passed to :meth:`check_batch`.
        """
        return np.fromiter(
            (report.clean for report in self.check_batch(patterns, canonical)),
            dtype=bool,
            count=len(patterns),
        )

    def legal_subset(
        self, patterns: "list[SquishPattern] | list[Layout]"
    ) -> "list[SquishPattern] | list[Layout]":
        """The DRC-clean patterns of a library, preserving order."""
        mask = self.legality_mask(patterns)
        return [pattern for pattern, ok in zip(patterns, mask) if ok]

    def legality_rate(self, patterns: "list[SquishPattern] | list[Layout]") -> float:
        """Fraction of DRC-clean patterns in a library."""
        if not patterns:
            return 0.0
        mask = self.legality_mask(patterns)
        return float(mask.sum()) / len(patterns)

    # ------------------------------------------------------------------ #
    def _check_grid(
        self, grid: np.ndarray, delta_x: np.ndarray, delta_y: np.ndarray
    ) -> DRCReport:
        grid = validate_grid(grid)
        dx = np.asarray(delta_x, dtype=np.int64)
        dy = np.asarray(delta_y, dtype=np.int64)
        report = DRCReport()
        rules = self.rules

        if has_bowtie(grid):
            report.violations.append(
                Violation("bowtie", "-", (0, 0), 0.0, float(rules.space_min))
            )

        # Width / space along both directions, all lines at once: runs come
        # from the shared run-length kernels and their physical lengths from
        # one prefix sum per axis (exact in int64).
        self._check_direction(grid, dx, "x", report)
        self._check_direction(grid.T, dy, "y", report)

        # Polygon areas.  The cell area grid is exact in int64; per-polygon
        # sums come from one bincount over the labels.
        labels, count = connected_components(grid)
        if count:
            cell_areas = np.outer(dy, dx)
            areas = np.bincount(
                labels.ravel(), weights=cell_areas.ravel(), minlength=count + 1
            )[1:]
            # Representative cell per polygon: its first cell in row-major
            # scan order (labels appear in scan order, so the first flat
            # occurrence of each label is well defined).
            _, first_flat = np.unique(labels.ravel(), return_index=True)
            first_flat = first_flat[-count:]  # drop the background label 0
            cols = grid.shape[1]
            for index in range(count):
                area = float(areas[index])
                location = (int(first_flat[index] // cols), int(first_flat[index] % cols))
                if area < rules.area_min:
                    report.violations.append(
                        Violation("area", "-", location, area, float(rules.area_min))
                    )
                elif area > rules.area_max:
                    report.violations.append(
                        Violation("area", "-", location, area, float(rules.area_max))
                    )
        return report

    def _check_direction(
        self,
        grid: np.ndarray,
        deltas: np.ndarray,
        axis: str,
        report: DRCReport,
    ) -> None:
        """Check every width and interior-space run along the rows of ``grid``.

        ``axis`` is ``"x"`` when the rows of ``grid`` are physical rows
        (lengths measured with ``delta_x``) and ``"y"`` when ``grid`` is the
        transposed view.  Violations are emitted in the order the per-line
        scan produced them: by line, widths before spaces, then by start.
        """
        rules = self.rules
        prefix = np.concatenate(([0], np.cumsum(deltas)))

        w_line, w_start, w_end = runs_2d(grid, 1)
        w_len = prefix[w_end + 1] - prefix[w_start]
        w_bad = w_len < rules.width_min

        s_line, s_start, s_end = interior_runs_2d(grid, 0)
        s_len = prefix[s_end + 1] - prefix[s_start]
        s_bad = s_len < rules.space_min

        lines = np.concatenate([w_line[w_bad], s_line[s_bad]])
        starts = np.concatenate([w_start[w_bad], s_start[s_bad]])
        lengths = np.concatenate([w_len[w_bad], s_len[s_bad]])
        kinds = np.concatenate(
            [np.zeros(int(w_bad.sum()), dtype=np.int8), np.ones(int(s_bad.sum()), dtype=np.int8)]
        )
        for i in np.lexsort((starts, kinds, lines)):
            line, start = int(lines[i]), int(starts[i])
            rule = "width" if kinds[i] == 0 else "space"
            required = rules.width_min if kinds[i] == 0 else rules.space_min
            location = (line, start) if axis == "x" else (start, line)
            report.violations.append(
                Violation(rule, axis, location, float(lengths[i]), float(required))
            )
