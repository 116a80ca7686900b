"""Run configuration: YAML ingestion, validation, and unit conversion.

The file is a nested key-value document (YAML).  Input units are fixed and
documented: moduli in GPa, densities in kg/m^3, lengths in mm, forces in N,
frequencies in Hz.  Everything is converted at ingestion to the consistent
N/mm/tonne/s system (MPa, tonne/mm^3, rad/s).  Validation reports every
problem found, not just the first, and unknown keys are rejected rather
than silently ignored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .beso import Schedule
from .errors import ConfigError
from .fem import StructuredGrid
from .materials import Phase, TwoPhaseMaterial
from .problem import MacroProblem, X_MIN_DEFAULT
from .uncertainty import HybridParameter, Interval, UncertainSet

logger = logging.getLogger(__name__)

GPA_TO_MPA = 1e3
KGM3_TO_TONMM3 = 1e-12

MODES = ("dcto", "rcto", "verify")

_EDGE_ANCHORS_2D = ("left-edge", "right-edge", "bottom-edge", "top-edge")
_FACE_ANCHORS_3D = ("left-face", "right-face", "bottom-face", "top-face", "front-face", "back-face")


@dataclass(frozen=True)
class LoadSpec:
    location: str
    direction: tuple[float, ...]
    amplitude: float
    frequency: float


@dataclass
class RunConfig:
    """Fully validated, unit-converted run description."""

    mode: str
    seed: int
    dim: int
    macro_elements: tuple[int, ...]
    macro_spacing: tuple[float, ...]
    fixed_anchors: tuple[str, ...]
    loads: tuple[LoadSpec, ...]
    cell_elements: tuple[int, ...]
    cell_spacing: tuple[float, ...]
    seed_fraction: float
    base_material: TwoPhaseMaterial
    params: UncertainSet
    schedule: Schedule
    penalty: float
    r_min_macro: float
    r_min_micro: float
    x_min: float
    mcs_interval: int
    mcs_random: int
    defaults_applied: tuple[str, ...]
    raw_text: str = ""

    @property
    def active_params(self) -> UncertainSet:
        """The parameters the mode optimizes against: none for dcto, the n = 0 case of rcto."""
        return self.params if self.mode == "rcto" else UncertainSet()

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.loads[0].frequency

    def macro_grid(self) -> StructuredGrid:
        return StructuredGrid(self.macro_elements, self.macro_spacing)

    def cell_grid(self) -> StructuredGrid:
        return StructuredGrid(self.cell_elements, self.cell_spacing)


class _Validator:
    def __init__(self):
        self.problems: list[str] = []
        self.defaults: list[str] = []

    def error(self, msg: str):
        self.problems.append(msg)

    def default(self, key: str, value):
        self.defaults.append(f"{key} = {value}")

    def check_keys(self, section: dict, allowed: set[str], where: str):
        for key in section:
            if key not in allowed:
                self.error(f"{where}: unknown key {key!r} (allowed: {sorted(allowed)})")

    def require(self, section: dict, key: str, where: str):
        if key not in section:
            self.error(f"{where}: missing required key {key!r}")
            return None
        return section[key]


def _as_interval(raw, where: str, v: _Validator) -> Interval | None:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return Interval.exact(float(raw))
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        try:
            return Interval(float(raw[0]), float(raw[1]))
        except (TypeError, ValueError) as exc:
            v.error(f"{where}: {exc}")
            return None
    v.error(f"{where}: expected a number or [lo, hi], got {raw!r}")
    return None


def _as_property(raw, where: str, v: _Validator) -> tuple[Interval, Interval] | None:
    """One material property: scalar, or a {mean:, std:} mapping of scalars/intervals."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return Interval.exact(float(raw)), Interval.exact(0.0)
    if isinstance(raw, dict):
        v.check_keys(raw, {"mean", "std"}, where)
        mean = _as_interval(raw.get("mean", None), f"{where}.mean", v) if "mean" in raw else None
        if mean is None and "mean" not in raw:
            v.error(f"{where}: missing 'mean'")
        std = Interval.exact(0.0)
        if "std" in raw:
            std = _as_interval(raw["std"], f"{where}.std", v)
        else:
            v.default(where + ".std", 0.0)
        if mean is None or std is None:
            return None
        if std.lo < 0:
            v.error(f"{where}.std: must be nonnegative")
            return None
        return mean, std
    v.error(f"{where}: expected a number or a {{mean, std}} mapping, got {raw!r}")
    return None


def _scaled(iv: Interval, factor: float) -> Interval:
    return Interval(iv.lo * factor, iv.hi * factor)


def _positive_int_list(raw, n, where, v):
    if not isinstance(raw, (list, tuple)) or len(raw) != n or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in raw
    ):
        v.error(f"{where}: expected {n} positive integers, got {raw!r}")
        return None
    return tuple(int(x) for x in raw)


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file; raises ConfigError with every problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"]) from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    if doc is None:
        raise ConfigError(
            ["empty config; required sections: geometry, boundary, loads, materials, optimizer"]
        )
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a mapping"])
    cfg = _parse_document(doc, text)
    for line in cfg.defaults_applied:
        logger.info("config default applied: %s", line)
    return cfg


def _parse_document(doc: dict, text: str) -> RunConfig:
    v = _Validator()
    v.check_keys(doc, {"mode", "seed", "geometry", "boundary", "loads", "cell", "materials", "optimizer", "mcs"}, "top level")

    mode = doc.get("mode", "dcto")
    if "mode" not in doc:
        v.default("mode", "dcto")
    if mode not in MODES:
        v.error(f"mode: expected one of {MODES}, got {mode!r}")
    seed = doc.get("seed", 0)
    if "seed" not in doc:
        v.default("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        v.error(f"seed: expected a nonnegative integer, got {seed!r}")
        seed = 0

    # geometry -------------------------------------------------------------
    geo = doc.get("geometry")
    dim = 2
    macro_elements = (1, 1)
    macro_spacing = (1.0, 1.0)
    if geo is None:
        v.error("missing required section 'geometry'")
    elif not isinstance(geo, dict):
        v.error("geometry: must be a mapping")
    else:
        v.check_keys(geo, {"dim", "elements", "element_size"}, "geometry")
        dim = geo.get("dim", 2)
        if "dim" not in geo:
            v.default("geometry.dim", 2)
        if dim not in (2, 3):
            v.error(f"geometry.dim: must be 2 or 3, got {dim!r}")
            dim = 2
        elems = v.require(geo, "elements", "geometry")
        if elems is not None:
            got = _positive_int_list(elems, dim, "geometry.elements", v)
            if got:
                macro_elements = got
        size = geo.get("element_size", 1.0)
        if "element_size" not in geo:
            v.default("geometry.element_size", "1.0 mm")
        macro_spacing = _spacing(size, dim, "geometry.element_size", v)

    # boundary and loads ---------------------------------------------------
    anchors = _EDGE_ANCHORS_2D if dim == 2 else _FACE_ANCHORS_3D
    fixed_anchors: tuple[str, ...] = ()
    bc = doc.get("boundary")
    if bc is None:
        v.error("missing required section 'boundary'")
    elif not isinstance(bc, dict):
        v.error("boundary: must be a mapping")
    else:
        v.check_keys(bc, {"fixed"}, "boundary")
        fixed = v.require(bc, "fixed", "boundary")
        if fixed is not None:
            if not isinstance(fixed, list) or not fixed:
                v.error("boundary.fixed: expected a nonempty list of anchors")
            else:
                bad = [a for a in fixed if a not in anchors]
                if bad:
                    v.error(f"boundary.fixed: unknown anchors {bad} (allowed: {list(anchors)})")
                fixed_anchors = tuple(str(a) for a in fixed)

    loads: list[LoadSpec] = []
    raw_loads = doc.get("loads")
    if raw_loads is None:
        v.error("missing required section 'loads'")
    elif not isinstance(raw_loads, list) or not raw_loads:
        v.error("loads: expected a nonempty list")
    else:
        for i, entry in enumerate(raw_loads):
            spec = _parse_load(entry, dim, f"loads[{i}]", v)
            if spec is not None:
                loads.append(spec)
        freqs = {ld.frequency for ld in loads}
        if len(freqs) > 1:
            v.error("loads: all loads must share one excitation frequency")

    # cell -----------------------------------------------------------------
    cell = doc.get("cell")
    cell_elements = (50, 50) if dim == 2 else (14, 14, 14)
    cell_spacing = tuple(1.0 / n for n in cell_elements)
    seed_fraction = 0.05
    if cell is None:
        v.default("cell.elements", list(cell_elements))
        v.default("cell.element_size", "1 mm cell")
    elif not isinstance(cell, dict):
        v.error("cell: must be a mapping")
    else:
        v.check_keys(cell, {"elements", "element_size", "seed_fraction"}, "cell")
        if "elements" in cell:
            got = _positive_int_list(cell["elements"], dim, "cell.elements", v)
            if got:
                cell_elements = got
                cell_spacing = tuple(1.0 / n for n in got)
        else:
            v.default("cell.elements", list(cell_elements))
        if "element_size" in cell:
            cell_spacing = _spacing(cell["element_size"], dim, "cell.element_size", v)
        else:
            v.default("cell.element_size", f"{cell_spacing[0]:g} mm (1 mm cell)")
        seed_fraction = cell.get("seed_fraction", 0.05)
        if "seed_fraction" not in cell:
            v.default("cell.seed_fraction", 0.05)
        if not isinstance(seed_fraction, (int, float)) or not 0.0 <= seed_fraction < 1.0:
            v.error(f"cell.seed_fraction: expected a fraction in [0, 1), got {seed_fraction!r}")
            seed_fraction = 0.05

    # materials ------------------------------------------------------------
    base_material, params = _parse_materials(doc.get("materials"), v)

    # optimizer ------------------------------------------------------------
    opt = doc.get("optimizer")
    opt = opt if isinstance(opt, dict) else ({} if opt is None else None)
    if opt is None:
        v.error("optimizer: must be a mapping")
        opt = {}
    v.check_keys(
        opt,
        {"weight_fraction", "evolution_ratio", "penalty", "kappa", "filter_radius_macro",
         "filter_radius_micro", "convergence_tol", "flip_cap", "max_iterations", "beta", "x_min"},
        "optimizer",
    )
    wf = v.require(opt, "weight_fraction", "optimizer")
    wf = wf if isinstance(wf, (int, float)) and 0 < wf <= 1 else None
    if wf is None and "weight_fraction" in opt:
        v.error(f"optimizer.weight_fraction: expected a fraction in (0, 1], got {opt.get('weight_fraction')!r}")

    def opt_number(key, default, lo=0.0, desc=""):
        if key not in opt:
            v.default(f"optimizer.{key}", default)
            return default
        val = opt[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool) or val <= lo:
            v.error(f"optimizer.{key}: expected a number > {lo}, got {val!r}")
            return default
        return float(val)

    er = opt_number("evolution_ratio", 0.02)
    penalty = opt_number("penalty", 3.0)
    kappa = opt.get("kappa")
    if kappa is None:
        kappa = 1.0
        v.default("optimizer.kappa", 1.0)
        logger.info("robust weighting kappa not set; defaulting to 1")
    elif not isinstance(kappa, (int, float)) or isinstance(kappa, bool) or kappa < 0:
        v.error(f"optimizer.kappa: expected a nonnegative number, got {kappa!r}")
        kappa = 1.0
    tol = opt_number("convergence_tol", 1e-3)
    x_min = opt_number("x_min", X_MIN_DEFAULT)
    max_iter = opt.get("max_iterations", 500)
    if "max_iterations" not in opt:
        v.default("optimizer.max_iterations", 500)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        v.error(f"optimizer.max_iterations: expected a positive integer, got {max_iter!r}")
        max_iter = 500
    flip_cap = opt.get("flip_cap", 0.05)
    if "flip_cap" not in opt:
        v.default("optimizer.flip_cap", 0.05)
    if flip_cap is not None and (not isinstance(flip_cap, (int, float)) or not 0 < flip_cap <= 1):
        v.error(f"optimizer.flip_cap: expected null or a fraction in (0, 1], got {flip_cap!r}")
        flip_cap = 0.05
    beta = opt.get("beta", "auto")
    if "beta" not in opt:
        v.default("optimizer.beta", "auto")
    if beta == "auto":
        beta = None
    elif not isinstance(beta, (int, float)) or isinstance(beta, bool) or beta <= 0:
        v.error(f"optimizer.beta: expected 'auto' or a positive number, got {beta!r}")
        beta = None

    r_mac = opt.get("filter_radius_macro")
    if r_mac is None:
        r_mac = 3.0 * macro_spacing[0]
        v.default("optimizer.filter_radius_macro", f"{r_mac:g} mm (3 element sides)")
    elif not isinstance(r_mac, (int, float)) or r_mac <= 0:
        v.error(f"optimizer.filter_radius_macro: expected a positive length, got {r_mac!r}")
        r_mac = 3.0 * macro_spacing[0]
    r_mic = opt.get("filter_radius_micro")
    if r_mic is None:
        r_mic = 3.0 * cell_spacing[0]
        v.default("optimizer.filter_radius_micro", f"{r_mic:g} mm (3 element sides)")
    elif not isinstance(r_mic, (int, float)) or r_mic <= 0:
        v.error(f"optimizer.filter_radius_micro: expected a positive length, got {r_mic!r}")
        r_mic = 3.0 * cell_spacing[0]

    # mcs ------------------------------------------------------------------
    mcs = doc.get("mcs", {})
    if not isinstance(mcs, dict):
        v.error("mcs: must be a mapping")
        mcs = {}
    v.check_keys(mcs, {"n_interval", "n_random"}, "mcs")
    n_interval = mcs.get("n_interval", 64)
    n_random = mcs.get("n_random", 2000)
    if "n_interval" not in mcs:
        v.default("mcs.n_interval", 64)
    if "n_random" not in mcs:
        v.default("mcs.n_random", 2000)
    for name, val in (("n_interval", n_interval), ("n_random", n_random)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 2:
            v.error(f"mcs.{name}: expected an integer >= 2, got {val!r}")

    if v.problems:
        raise ConfigError(v.problems)

    schedule = Schedule(
        target_weight_fraction=float(wf),
        evolution_ratio=er,
        kappa=float(kappa),
        convergence_tol=tol,
        flip_cap=None if flip_cap is None else float(flip_cap),
        max_iterations=max_iter,
        beta=beta,
    )
    return RunConfig(
        mode=mode,
        seed=seed,
        dim=dim,
        macro_elements=macro_elements,
        macro_spacing=macro_spacing,
        fixed_anchors=fixed_anchors,
        loads=tuple(loads),
        cell_elements=cell_elements,
        cell_spacing=cell_spacing,
        seed_fraction=float(seed_fraction),
        base_material=base_material,
        params=params,
        schedule=schedule,
        penalty=penalty,
        r_min_macro=float(r_mac),
        r_min_micro=float(r_mic),
        x_min=x_min,
        mcs_interval=int(n_interval),
        mcs_random=int(n_random),
        defaults_applied=tuple(v.defaults),
        raw_text=text,
    )


def _spacing(size, dim, where, v):
    if isinstance(size, (int, float)) and not isinstance(size, bool) and size > 0:
        return (float(size),) * dim
    if isinstance(size, (list, tuple)) and len(size) == dim and all(
        isinstance(x, (int, float)) and x > 0 for x in size
    ):
        return tuple(float(x) for x in size)
    v.error(f"{where}: expected a positive length or {dim} of them, got {size!r}")
    return (1.0,) * dim


def _parse_load(entry, dim, where, v) -> LoadSpec | None:
    if not isinstance(entry, dict):
        v.error(f"{where}: must be a mapping")
        return None
    v.check_keys(entry, {"location", "direction", "amplitude", "frequency"}, where)
    loc = v.require(entry, "location", where)
    amp = v.require(entry, "amplitude", where)
    direction = entry.get("direction", "-y")
    if "direction" not in entry:
        v.default(f"{where}.direction", "-y")
    freq = entry.get("frequency", 0.0)
    if "frequency" not in entry:
        v.default(f"{where}.frequency", "0 Hz (static)")
    vec = _parse_direction(direction, dim, where, v)
    if amp is not None and (not isinstance(amp, (int, float)) or isinstance(amp, bool)):
        v.error(f"{where}.amplitude: expected a force in N, got {amp!r}")
        amp = None
    if freq is not None and (not isinstance(freq, (int, float)) or isinstance(freq, bool) or freq < 0):
        v.error(f"{where}.frequency: expected a nonnegative frequency in Hz, got {freq!r}")
        freq = 0.0
    if loc is not None and not isinstance(loc, str):
        v.error(f"{where}.location: expected an anchor string, got {loc!r}")
        loc = None
    if loc is not None:
        try:
            _anchor_fractions(loc, dim)
        except ValueError as exc:
            v.error(f"{where}.location: {exc}")
            loc = None
    if loc is None or amp is None or vec is None:
        return None
    return LoadSpec(location=loc, direction=vec, amplitude=float(amp), frequency=float(freq))


_AXIS_TOKENS = {
    "left": (0, 0.0), "right": (0, 1.0),
    "bottom": (1, 0.0), "top": (1, 1.0), "middle": (1, 0.5),
    "front": (2, 0.0), "back": (2, 1.0),
}


def _anchor_fractions(anchor: str, dim: int) -> tuple[float, ...]:
    """Resolve a geometric anchor like ``right-bottom`` to per-axis fractions.

    Unassigned axes default to the center; ``center`` centers the first
    unassigned axis.
    """
    frac: dict[int, float] = {}
    for token in anchor.split("-"):
        if token == "center":
            axis = next((a for a in range(dim) if a not in frac), None)
            if axis is None:
                raise ValueError(f"anchor {anchor!r} over-specifies the axes")
            frac[axis] = 0.5
            continue
        if token not in _AXIS_TOKENS:
            raise ValueError(f"unknown anchor token {token!r} in {anchor!r}")
        axis, value = _AXIS_TOKENS[token]
        if axis >= dim:
            raise ValueError(f"anchor token {token!r} needs a 3D mesh")
        if axis in frac:
            raise ValueError(f"anchor {anchor!r} assigns axis {axis} twice")
        frac[axis] = value
    return tuple(frac.get(a, 0.5) for a in range(dim))


def _parse_direction(raw, dim, where, v):
    named = {"x": 0, "y": 1, "z": 2}
    if isinstance(raw, str):
        sign = 1.0
        token = raw
        if token.startswith(("-", "+")):
            sign = -1.0 if token[0] == "-" else 1.0
            token = token[1:]
        if token in named and named[token] < dim:
            vec = [0.0] * dim
            vec[named[token]] = sign
            return tuple(vec)
        v.error(f"{where}.direction: unknown direction {raw!r}")
        return None
    if isinstance(raw, (list, tuple)) and len(raw) == dim and all(isinstance(x, (int, float)) for x in raw):
        norm = math.sqrt(sum(float(x) ** 2 for x in raw))
        if norm == 0:
            v.error(f"{where}.direction: zero vector")
            return None
        return tuple(float(x) / norm for x in raw)
    v.error(f"{where}.direction: expected 'x'/'y'/'z' (optionally signed) or a {dim}-vector")
    return None


_PROPERTY_KEYS = {"youngs_modulus", "poisson", "density"}


def _parse_materials(raw, v: _Validator) -> tuple[TwoPhaseMaterial, UncertainSet]:
    fallback = TwoPhaseMaterial(Phase(1.0, 0.3, 1.0), Phase(0.5, 0.3, 0.5)), UncertainSet()
    if raw is None:
        v.error("missing required section 'materials'")
        return fallback
    if not isinstance(raw, dict):
        v.error("materials: must be a mapping")
        return fallback
    v.check_keys(raw, {"phase1", "phase2", "share_poisson"}, "materials")
    share = raw.get("share_poisson", True)
    if "share_poisson" not in raw:
        v.default("materials.share_poisson", True)
    if not isinstance(share, bool):
        v.error(f"materials.share_poisson: expected true/false, got {share!r}")
        share = True

    props = {}
    for phase in ("phase1", "phase2"):
        section = v.require(raw, phase, "materials")
        if not isinstance(section, dict):
            if section is not None:
                v.error(f"materials.{phase}: must be a mapping")
            return fallback
        v.check_keys(section, _PROPERTY_KEYS, f"materials.{phase}")
        for key in _PROPERTY_KEYS:
            got = v.require(section, key, f"materials.{phase}")
            if got is None:
                return fallback
            parsed = _as_property(got, f"materials.{phase}.{key}", v)
            if parsed is None:
                return fallback
            props[(phase, key)] = parsed

    # unit conversion: GPa -> MPa, kg/m^3 -> tonne/mm^3
    def conv(phase, key):
        mean, std = props[(phase, key)]
        factor = {"youngs_modulus": GPA_TO_MPA, "poisson": 1.0, "density": KGM3_TO_TONMM3}[key]
        return _scaled(mean, factor), _scaled(std, factor)

    e1m, e1s = conv("phase1", "youngs_modulus")
    e2m, e2s = conv("phase2", "youngs_modulus")
    n1m, n1s = conv("phase1", "poisson")
    n2m, n2s = conv("phase2", "poisson")
    r1m, r1s = conv("phase1", "density")
    r2m, r2s = conv("phase2", "density")

    if share and ((n1m.lo, n1m.hi, n1s.lo, n1s.hi) != (n2m.lo, n2m.hi, n2s.lo, n2s.hi)):
        v.error(
            "materials: share_poisson is true but the phases declare different Poisson data; "
            "set share_poisson: false to split them"
        )
    if not e1m.midpoint > e2m.midpoint:
        v.error("materials: phase 1 must be the stiff phase (E1 > E2 at the midpoint means)")
    if not r1m.midpoint > r2m.midpoint:
        v.error("materials: phase 1 must be the heavy phase (rho1 > rho2 at the midpoint means)")
    for name, iv in (("phase1.poisson", n1m), ("phase2.poisson", n2m)):
        if iv.lo <= -1.0 or iv.hi >= 0.5:
            v.error(f"materials.{name}: Poisson ratio must stay in (-1, 0.5)")

    base = TwoPhaseMaterial(
        Phase(e1m.midpoint, n1m.midpoint, r1m.midpoint),
        Phase(e2m.midpoint, n2m.midpoint, r2m.midpoint),
    )
    try:
        if share:
            params = UncertainSet([
                HybridParameter("e1", e1m, e1s),
                HybridParameter("e2", e2m, e2s),
                HybridParameter("nu", n1m, n1s),
                HybridParameter("rho1", r1m, r1s),
                HybridParameter("rho2", r2m, r2s),
            ])
        else:
            params = UncertainSet([
                HybridParameter("e1", e1m, e1s),
                HybridParameter("e2", e2m, e2s),
                HybridParameter("nu1", n1m, n1s),
                HybridParameter("nu2", n2m, n2s),
                HybridParameter("rho1", r1m, r1s),
                HybridParameter("rho2", r2m, r2s),
            ])
    except ValueError as exc:
        v.error(f"materials: {exc}")
        return fallback
    return base, params


def resolve_fixed_dofs(grid: StructuredGrid, anchors) -> np.ndarray:
    """All DOFs of the nodes on the named edges/faces."""
    nshape = grid.nodes_shape
    axes = [np.arange(n) for n in nshape]
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel(order="F") for m in mesh], axis=-1)
    mask = np.zeros(grid.n_nodes, dtype=bool)
    planes = {
        "left": (0, 0), "right": (0, nshape[0] - 1),
        "bottom": (1, 0), "top": (1, nshape[1] - 1),
    }
    if grid.dim == 3:
        planes["front"] = (2, 0)
        planes["back"] = (2, nshape[2] - 1)
    for anchor in anchors:
        token = anchor.split("-")[0]
        axis, pos = planes[token]
        mask |= idx[:, axis] == pos
    nodes = np.flatnonzero(mask)
    return (grid.dim * nodes[:, None] + np.arange(grid.dim)[None, :]).ravel()


def resolve_load_vector(grid: StructuredGrid, loads) -> np.ndarray:
    """Assemble the nodal load vector from geometric anchors (deterministic rounding)."""
    f = np.zeros(grid.n_dofs)
    for load in loads:
        frac = _anchor_fractions(load.location, grid.dim)
        node_idx = [int(math.floor(fr * n + 0.5)) for fr, n in zip(frac, grid.shape)]
        node = int(grid.node_id(np.array(node_idx)))
        for axis, comp in enumerate(load.direction):
            f[grid.dim * node + axis] += load.amplitude * comp
    return f


def build_problem(cfg: RunConfig) -> MacroProblem:
    grid = cfg.macro_grid()
    return MacroProblem(
        grid=grid,
        cell=cfg.cell_grid(),
        fixed_dofs=resolve_fixed_dofs(grid, cfg.fixed_anchors),
        force=resolve_load_vector(grid, cfg.loads),
        omega=cfg.omega,
        penalty=cfg.penalty,
    )
