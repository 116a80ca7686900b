"""Result export and verification reporting.

Density fields go out as flat CSV (grid indices + value, x fastest) and as
VTK legacy ASCII structured-points cell data, both with shortest-roundtrip
float formatting so identical runs produce byte-identical files.  A result
bundle is a directory holding the echoed config, the iteration history, the
final fields, the effective elasticity block and a JSON summary; re-loading
a bundle and re-evaluating its objective reproduces the logged value.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os

import numpy as np

from .beso import HistoryRow, OptimizationResult
from .config import RunConfig, build_problem, parse_config_text
from .errors import OutputError
from .fem import StructuredGrid
from .homogenization import format_effective_matrix
from .problem import DesignState, MacroProblem
from .uncertainty import McsResult, RobustObjective, UncertainSet, ihpa_evaluate, mcs_evaluate

logger = logging.getLogger(__name__)


def _fmt(value: float) -> str:
    return repr(float(value))


def make_output_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def export_field_csv(path: str, grid: StructuredGrid, values: np.ndarray) -> None:
    """Flat CSV of a per-element scalar field: grid indices then value, x fastest."""
    values = np.asarray(values)
    if values.size != grid.n_elems:
        raise OutputError(f"field has {values.size} entries, grid has {grid.n_elems} elements")
    idx = np.unravel_index(np.arange(grid.n_elems), grid.shape, order="F")
    lines = [",".join(["i", "j", "k"][: grid.dim] + ["value"])]
    lines += [",".join([str(i[n]) for i in idx] + [_fmt(values[n])]) for n in range(grid.n_elems)]
    write_text(path, "\n".join(lines) + "\n")


def import_field_csv(path: str, grid: StructuredGrid) -> np.ndarray:
    """Read a field written by ``export_field_csv``: each element once, a density in (0, 1]; else OutputError."""
    values = np.full(grid.n_elems, np.nan)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[-1] != "value" or len(header) != grid.dim + 1:
                raise OutputError(f"{path}: unexpected CSV header {header}")
            for row, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                try:
                    if len(parts) != grid.dim + 1:
                        raise ValueError(f"expected {grid.dim + 1} columns")
                    flat = int(np.ravel_multi_index(tuple(int(p) for p in parts[:-1]), grid.shape, order="F"))
                    if not np.isnan(values[flat]):
                        raise ValueError("element listed twice")
                    values[flat] = float(parts[-1])
                    if not 0.0 < values[flat] <= 1.0:
                        raise ValueError("density must be a finite value in (0, 1]")
                except ValueError as exc:
                    raise OutputError(f"{path}: bad row {row} {line.strip()!r}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        first = tuple(int(i) for i in np.unravel_index(missing[0], grid.shape, order="F"))
        raise OutputError(f"{path}: {missing.size} elements missing, the first at {first}")
    return values


def export_field_vtk(path: str, grid: StructuredGrid, values: np.ndarray) -> None:
    """VTK legacy ASCII structured-points file with one cell-data scalar field."""
    values = np.asarray(values)
    if values.size != grid.n_elems:
        raise OutputError(f"field has {values.size} entries, grid has {grid.n_elems} elements")
    dims = list(grid.nodes_shape) + [1] * (3 - grid.dim)
    spacing = list(grid.spacing) + [1.0] * (3 - grid.dim)
    lines = [
        "# vtk DataFile Version 2.0",
        "rcto density field",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}",
        "ORIGIN 0.0 0.0 0.0",
        f"SPACING {_fmt(spacing[0])} {_fmt(spacing[1])} {_fmt(spacing[2])}",
        f"CELL_DATA {grid.n_elems}",
        "SCALARS density double 1",
        "LOOKUP_TABLE default",
    ]
    lines += [_fmt(v) for v in values]  # storage is already x fastest
    write_text(path, "\n".join(lines) + "\n")


def write_history_csv(path: str, history: list[HistoryRow]) -> None:
    names = [f.name for f in dataclasses.fields(HistoryRow)]  # iteration first, then floats
    lines = [",".join(names)]
    lines += [",".join([str(row.iteration)] + [_fmt(getattr(row, f)) for f in names[1:]]) for row in history]
    write_text(path, "\n".join(lines) + "\n")


@dataclasses.dataclass
class VerifyReport:
    """Side-by-side perturbation vs Monte Carlo worst-case statistics."""

    ihpa: RobustObjective
    mcs: McsResult
    kappa: float

    @property
    def mcs_objective(self) -> float:
        return self.mcs.objective(self.kappa)

    def relative_errors(self) -> dict[str, float]:
        def rel(a, b):
            return abs(a - b) / abs(b) if b != 0 else (0.0 if a == 0 else float("inf"))

        return {
            "expectation": rel(self.ihpa.expectation, self.mcs.expectation),
            "std": rel(self.ihpa.std, self.mcs.std),
            "objective": rel(self.ihpa.objective, self.mcs_objective),
        }

    def format_table(self, ihpa_calls: int) -> str:
        errs = self.relative_errors()
        rows = [
            ("expectation", self.ihpa.expectation, self.mcs.expectation, errs["expectation"]),
            ("standard variance", self.ihpa.std, self.mcs.std, errs["std"]),
            ("objective", self.ihpa.objective, self.mcs_objective, errs["objective"]),
        ]
        lines = [
            "worst-case mean-compliance statistics (perturbation vs Monte Carlo)",
            f"{'quantity':<20}{'IHPA':>16}{'MCS':>16}{'rel. error':>12}",
        ]
        for name, a, b, e in rows:
            lines.append(f"{name:<20}{a:>16.6f}{b:>16.6f}{e:>11.2%}")
        lines.append(f"{'FEA calls':<20}{ihpa_calls:>16}{self.mcs.fea_calls:>16}")
        if self.mcs.resampled:
            lines.append(f"(Monte Carlo redrew {self.mcs.resampled} non-physical samples)")
        lines.append(
            f"(Monte Carlo reduced bases: cell {self.mcs.cell_basis} columns from {self.mcs.cell_solves} full solves, "
            f"macro {self.mcs.macro_basis} columns from {self.mcs.macro_solves} full solves)"
        )
        lines.append(
            f"(Monte Carlo standard errors: expectation {self.mcs.expectation_se:.6f}, "
            f"standard variance {self.mcs.std_se:.6f})"
        )
        return "\n".join(lines) + "\n"


def verify(
    problem: MacroProblem,
    state: DesignState,
    base_material,
    params: UncertainSet,
    kappa: float,
    n_interval: int,
    n_random: int,
    seed: int,
) -> tuple[VerifyReport, int]:
    """Run both uncertainty propagation routes on one design and compare."""
    import numpy.random  # noqa: F401  loaded here, not inside the Monte Carlo run; no other command draws
    objective, cache = ihpa_evaluate(problem, state, base_material, params, kappa=kappa)
    mcs = mcs_evaluate(problem, state, base_material, params, n_interval, n_random, seed)
    return VerifyReport(ihpa=objective, mcs=mcs, kappa=kappa), cache.fea_calls


# ---------------------------------------------------------------------------
# Result bundles
# ---------------------------------------------------------------------------


def write_bundle(
    outdir: str,
    cfg: RunConfig,
    problem: MacroProblem,
    result: OptimizationResult,
) -> None:
    make_output_dir(outdir)
    write_text(os.path.join(outdir, "config.yaml"), cfg.raw_text)
    write_history_csv(os.path.join(outdir, "history.csv"), result.history)
    export_field_csv(os.path.join(outdir, "macro_density.csv"), problem.grid, result.state.x_macro)
    export_field_csv(os.path.join(outdir, "micro_density.csv"), problem.cell, result.state.x_micro)
    export_field_vtk(os.path.join(outdir, "macro_density.vtk"), problem.grid, result.state.x_macro)
    export_field_vtk(os.path.join(outdir, "micro_density.vtk"), problem.cell, result.state.x_micro)
    matrix = format_effective_matrix(result.props.d_h, result.props.rho_h)
    write_text(os.path.join(outdir, "effective_elasticity.txt"), matrix)
    summary = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.objective.objective,
        "expectation": result.objective.expectation,
        "std": result.objective.std,
        "kappa": cfg.schedule.kappa,
        "weight_fraction": result.history[-1].weight_fraction,
        "macro_solid_fraction": result.state.macro_solid_fraction,
        "micro_phase1_fraction": result.state.micro_phase1_fraction,
        "defaults_applied": list(cfg.defaults_applied),
    }
    write_text(os.path.join(outdir, "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if result.field_snapshots:  # non-empty only for run(keep_snapshots=True)
        folder = os.path.join(outdir, "iterations")
        make_output_dir(folder)
        for iteration, x_macro, x_micro in result.field_snapshots:
            export_field_csv(os.path.join(folder, f"iter_{iteration:04d}_macro.csv"), problem.grid, x_macro)
            export_field_csv(os.path.join(folder, f"iter_{iteration:04d}_micro.csv"), problem.cell, x_micro)
    logger.info("wrote result bundle to %s", outdir)


def load_bundle(outdir: str):
    """Reload (config, problem, state, summary) from a bundle directory."""
    try:
        with open(os.path.join(outdir, "config.yaml"), "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(outdir, "summary.json"), "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or summary.json not JSON
        raise OutputError(f"cannot load bundle {outdir}: {exc}") from exc
    cfg = parse_config_text(text)
    problem = build_problem(cfg)
    x_macro = import_field_csv(os.path.join(outdir, "macro_density.csv"), problem.grid)
    x_micro = import_field_csv(os.path.join(outdir, "micro_density.csv"), problem.cell)
    state = DesignState(x_macro=x_macro, x_micro=x_micro, x_min=cfg.x_min)
    return cfg, problem, state, summary


def reevaluate_bundle(outdir: str) -> tuple[float, float]:
    """Recompute the objective of a saved design; returns (logged, recomputed)."""
    cfg, problem, state, summary = load_bundle(outdir)
    # the summary records the effective mode (a CLI flag may have overridden the echoed config)
    cfg.mode = summary.get("mode", cfg.mode)
    objective, _ = ihpa_evaluate(
        problem, state, cfg.base_material, cfg.active_params, kappa=cfg.schedule.kappa
    )
    return float(summary["objective"]), objective.objective
