"""Nonlinear-system solver for the 2D legal pattern assessment (Eq. 14).

The system's unknowns are the geometric vectors ``delta_x`` (one entry per
topology column) and ``delta_y`` (one per row).  The constraints are

* positivity of every interval,
* both vectors summing to the pattern window size,
* linear lower bounds for every width / space run,
* nonlinear two-sided bounds on every polygon area.

The constraint system is compiled once per topology into the stacked-array
kernel of :mod:`repro.legalization.compiled`, then solved in one of two
modes (``SolverOptions.solver_mode``):

* ``"slsqp"`` — SLSQP (scipy) over the compiled vectorized ``fun``/``jac``
  pair; bit-identical to the historical per-constraint lambda formulation.
  The objective is a least-squares pull towards a *target* geometry, which
  makes the solution set explorable: different random targets give different
  legal geometries for the same topology (DiffPattern-L), while targets from
  existing dataset geometries give the accelerated ``Solving-E`` variant of
  Table II.
* ``"auto"`` — repair-first: a deterministic projection of the target onto
  the sum equality and the per-index interval lower bounds, rounded and
  verified exactly; only topologies the projection cannot legalise fall back
  to the full SLSQP solve.  Outputs remain deterministic per seed and always
  pass the exact integer verification, but are *not* bit-identical to
  ``"slsqp"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from ..utils import as_rng
from .compiled import CompiledConstraints, compile_constraints
from .constraints import TopologyConstraints, extract_constraints, polygon_area
from .rules import DesignRules

#: Valid values of :attr:`SolverOptions.solver_mode`.
SOLVER_MODES = ("auto", "slsqp")


@dataclass
class SolverOptions:
    """Numerical options of the legalisation solve."""

    margin: float = 2.0            # slack (nm) added to every >= constraint before rounding
    lower_bound: float = 4.0       # minimum interval length (nm)
    max_iterations: int = 300
    tolerance: float = 1e-6
    max_attempts: int = 4          # restarts with fresh random targets on failure
    #: ``"auto"`` tries the deterministic repair projection before SLSQP;
    #: ``"slsqp"`` always runs the full solve (bit-identical to the legacy
    #: lambda formulation — what ``paper-tables`` pins).
    solver_mode: str = "auto"


@dataclass
class GeometrySolution:
    """Result of one legalisation solve."""

    success: bool
    delta_x: "np.ndarray | None"
    delta_y: "np.ndarray | None"
    iterations: int
    elapsed_seconds: float
    message: str = ""
    attempts: int = 1
    objective: float = field(default=float("nan"))
    #: Which path produced the solution: ``"slsqp"`` for the full nonlinear
    #: solve, ``"repair"`` for the projection fast path.
    method: str = "slsqp"


def _random_partition(total: int, parts: int, rng: np.random.Generator) -> np.ndarray:
    """A random positive vector of length ``parts`` summing to ``total``."""
    weights = rng.dirichlet(np.full(parts, 2.0))
    return weights * float(total)


def _round_preserving_sum(values: np.ndarray, total: int) -> np.ndarray:
    """Round to integers while keeping the exact sum (largest-remainder)."""
    floors = np.floor(values).astype(np.int64)
    floors = np.maximum(floors, 1)
    deficit = int(total - floors.sum())
    n = floors.shape[0]
    if deficit > 0:
        remainders = values - np.floor(values)
        order = np.argsort(-remainders)
        # Cycling the remainder order and adding one unit per visit hands
        # position order[j] exactly (deficit // n) units plus one more for
        # the first (deficit % n) positions.
        floors[order[: deficit % n]] += 1
        floors += deficit // n
    elif deficit < 0:
        order = np.argsort(-floors)
        while deficit < 0:
            # One full cycle over the (fixed) descending-value order: every
            # position above the floor of 1 gives back one unit, capped at
            # the remaining deficit.
            candidates = order[floors[order] > 1][: -deficit]
            if candidates.size == 0:
                break
            floors[candidates] -= 1
            deficit += candidates.size
    return floors


def _resolve_compiled(
    constraints: "TopologyConstraints | CompiledConstraints", rules: DesignRules
) -> CompiledConstraints:
    """Accept either representation; compile (or validate) as needed."""
    if isinstance(constraints, CompiledConstraints):
        if constraints.rules != rules:
            raise ValueError(
                "compiled constraints were built for a different DesignRules set"
            )
        return constraints
    return compile_constraints(constraints, rules)


def solve_geometry(
    constraints: "TopologyConstraints | CompiledConstraints",
    rules: DesignRules,
    target_x: "np.ndarray | None" = None,
    target_y: "np.ndarray | None" = None,
    rng: "int | np.random.Generator | None" = None,
    options: "SolverOptions | None" = None,
) -> GeometrySolution:
    """Find legal integer geometric vectors for one topology.

    ``target_x`` / ``target_y`` steer the least-squares objective; when omitted
    random targets are drawn (``Solving-R``).  Supplying geometry vectors from
    an existing pattern gives ``Solving-E``.  ``constraints`` may be a raw
    :class:`TopologyConstraints` (compiled here) or an already-compiled
    :class:`~repro.legalization.CompiledConstraints` (e.g. from the
    topology-hash cache), which skips recompilation across restart attempts
    and multi-solution solves.
    """
    opts = options if options is not None else SolverOptions()
    if opts.solver_mode not in SOLVER_MODES:
        raise ValueError(
            f"solver_mode must be one of {SOLVER_MODES}, got {opts.solver_mode!r}"
        )
    compiled = _resolve_compiled(constraints, rules)
    gen = as_rng(rng)
    rows, cols = compiled.shape
    total = rules.pattern_size
    start_time = time.perf_counter()

    # Attempt-1 targets: the caller-provided pair when given, else random.
    # Drawn up front so the repair fast path and SLSQP attempt 1 share them
    # (the fast path consumes no extra random draws).
    if target_x is not None:
        tx = np.asarray(target_x, dtype=np.float64)
    else:
        tx = _random_partition(total, cols, gen)
    if target_y is not None:
        ty = np.asarray(target_y, dtype=np.float64)
    else:
        ty = _random_partition(total, rows, gen)
    if tx.shape[0] != cols or ty.shape[0] != rows:
        raise ValueError(
            f"target vectors have wrong length (need {cols} x-targets, {rows} y-targets)"
        )

    if opts.solver_mode == "auto":
        repaired = _repair_projection(compiled, tx, ty, opts)
        if repaired is not None:
            dx, dy = repaired
            diff = np.concatenate([dx, dy]).astype(np.float64) - np.concatenate([tx, ty])
            return GeometrySolution(
                success=True,
                delta_x=dx,
                delta_y=dy,
                iterations=0,
                elapsed_seconds=time.perf_counter() - start_time,
                message="repaired",
                attempts=1,
                objective=float(diff @ diff) / total,
                method="repair",
            )

    attempts = 0
    last_message = ""
    total_iterations = 0
    while attempts < opts.max_attempts:
        attempts += 1
        if attempts > 1:
            tx = _random_partition(total, cols, gen)
            ty = _random_partition(total, rows, gen)

        result = _solve_once(compiled, tx, ty, opts)
        total_iterations += result["iterations"]
        if result["success"]:
            dx = _round_preserving_sum(result["delta_x"], total)
            dy = _round_preserving_sum(result["delta_y"], total)
            if compiled.verify_integer(dx, dy):
                elapsed = time.perf_counter() - start_time
                return GeometrySolution(
                    success=True,
                    delta_x=dx,
                    delta_y=dy,
                    iterations=total_iterations,
                    elapsed_seconds=elapsed,
                    message="converged",
                    attempts=attempts,
                    objective=result["objective"],
                )
            last_message = "rounded solution violated a constraint"
        else:
            last_message = result["message"]

    elapsed = time.perf_counter() - start_time
    return GeometrySolution(
        success=False,
        delta_x=None,
        delta_y=None,
        iterations=total_iterations,
        elapsed_seconds=elapsed,
        message=last_message or "no feasible solution found",
        attempts=attempts,
    )


def _repair_projection(
    compiled: CompiledConstraints,
    target_x: np.ndarray,
    target_y: np.ndarray,
    opts: SolverOptions,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Deterministic repair: project the target onto the linear constraints.

    Each axis is scaled onto the sum equality, lifted onto the per-index
    interval lower bounds (which are rounding-safe by construction — see
    :meth:`CompiledConstraints.repair_lower_bounds`), and the remaining
    slack redistributed proportionally to the target's free mass.  The
    rounded integer vectors are then verified *exactly* against every
    constraint — including the polygon-area windows the projection ignores —
    so a returned pair is always legal; ``None`` means "fall back to SLSQP".
    """
    lb_x, lb_y = compiled.repair_lower_bounds(opts.lower_bound)
    total = compiled.rules.pattern_size
    vx = _project_axis(target_x, lb_x, total)
    if vx is None:
        return None
    vy = _project_axis(target_y, lb_y, total)
    if vy is None:
        return None
    dx = _round_preserving_sum(vx, total)
    dy = _round_preserving_sum(vy, total)
    if compiled.verify_integer(dx, dy):
        return dx, dy
    return None


def _project_axis(
    target: np.ndarray, lower: np.ndarray, total: int
) -> "np.ndarray | None":
    """Project ``target`` onto ``{v >= lower, sum(v) = total}`` (or ``None``)."""
    slack = float(total) - lower.sum()
    if slack < 0:
        return None
    t = np.maximum(np.asarray(target, dtype=np.float64), 1e-9)
    scaled = t * (float(total) / t.sum())
    lifted = np.maximum(scaled, lower)
    free = lifted - lower
    free_sum = free.sum()
    if free_sum <= 0.0:
        # Every entry sits on its bound; feasible only when the bounds
        # already consume the whole window.
        return lower.copy() if slack == 0.0 else None
    return lower + free * (slack / free_sum)


def _solve_once(
    compiled: CompiledConstraints,
    target_x: np.ndarray,
    target_y: np.ndarray,
    opts: SolverOptions,
) -> dict:
    rows, cols = compiled.shape
    total = compiled.total
    n_vars = compiled.n_vars
    target = np.concatenate([target_x, target_y])
    # Normalise the least-squares pull so that objective values are O(100) and
    # gradients O(0.1): small enough to be well conditioned, large enough that
    # SLSQP keeps descending towards the target instead of stopping at the
    # first feasible point (which would collapse solution diversity).
    scale = 1.0 / total

    def objective(v: np.ndarray) -> float:
        diff = v - target
        return float(diff @ diff) * scale

    def objective_grad(v: np.ndarray) -> np.ndarray:
        return 2.0 * (v - target) * scale

    cons = compiled.slsqp_constraints(opts.margin)

    bounds = [(opts.lower_bound, total)] * n_vars
    # Start from uniform intervals: it satisfies the equality constraints
    # exactly and is (near-)feasible for typical width/space minima, which
    # keeps SLSQP well-behaved.  Diversity comes from the random *target* in
    # the objective, not from the start point.
    x0 = np.empty(n_vars)
    x0[:cols] = total / cols
    x0[cols:] = total / rows

    result = optimize.minimize(
        objective,
        x0,
        jac=objective_grad,
        bounds=bounds,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": opts.max_iterations, "ftol": opts.tolerance},
    )
    return {
        "success": bool(result.success),
        "delta_x": result.x[:cols],
        "delta_y": result.x[cols:],
        "iterations": int(result.nit),
        "message": str(result.message),
        "objective": float(result.fun),
    }


def _verify_integer_solution(
    constraints: "TopologyConstraints | CompiledConstraints",
    rules: DesignRules,
    delta_x: np.ndarray,
    delta_y: np.ndarray,
) -> bool:
    """Exact re-check of Eq. (14) on the rounded integer vectors."""
    if isinstance(constraints, CompiledConstraints):
        return constraints.verify_integer(delta_x, delta_y)
    delta_x = np.asarray(delta_x)
    delta_y = np.asarray(delta_y)
    if (delta_x <= 0).any() or (delta_y <= 0).any():
        return False
    if int(delta_x.sum()) != rules.pattern_size or int(delta_y.sum()) != rules.pattern_size:
        return False
    for constraint in constraints.all_interval_constraints:
        delta = delta_x if constraint.axis == "x" else delta_y
        if int(delta[constraint.indices()].sum()) < constraint.minimum:
            return False
    for cells in constraints.polygon_cells:
        area = polygon_area(cells, delta_x, delta_y)
        if not rules.area_min <= area <= rules.area_max:
            return False
    return True


def solve_topology(
    topology: np.ndarray,
    rules: DesignRules,
    target_x: "np.ndarray | None" = None,
    target_y: "np.ndarray | None" = None,
    rng: "int | np.random.Generator | None" = None,
    options: "SolverOptions | None" = None,
) -> GeometrySolution:
    """Convenience wrapper: extract constraints from ``topology`` and solve."""
    constraints = extract_constraints(topology, rules.width_min, rules.space_min)
    return solve_geometry(
        constraints, rules, target_x=target_x, target_y=target_y, rng=rng, options=options
    )
