"""Run configuration: YAML ingestion, validation, and unit conversion.

The file is a nested key-value document (YAML).  Input units are fixed and
documented: moduli in GPa, densities in kg/m^3, lengths in mm, forces in N,
frequencies in Hz.  Everything is converted at ingestion to the consistent
N/mm/tonne/s system (MPa, tonne/mm^3, rad/s).  Validation reports every
problem found, not just the first, and unknown keys are rejected rather
than silently ignored.  Every key is read by ``_Validator.take``, which
applies and records its default, or checks its value and reports it.
The document is read by PyYAML's libyaml loader (``yaml.CSafeLoader``),
which ``import yaml`` already loads and which reads a shipped config about
8 times faster than the pure-Python scanner; ``yaml.SafeLoader`` reads it
only where PyYAML was built without libyaml.  Both give the same document.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .beso import Schedule
from .errors import ConfigError
from .fem import StructuredGrid, unique_ids
from .materials import PARAMETERS, PHYSICAL_RANGES, Phase, TwoPhaseMaterial
from .problem import MacroProblem, X_MIN_DEFAULT
from .uncertainty import HybridParameter, Interval, UncertainSet

logger = logging.getLogger(__name__)

GPA_TO_MPA = 1e3
KGM3_TO_TONMM3 = 1e-12

MODES = ("dcto", "rcto", "verify")

# anchor token -> (axis, position along it as a fraction of the mesh)
_AXIS_TOKENS = {
    "left": (0, 0.0), "right": (0, 1.0),
    "bottom": (1, 0.0), "top": (1, 1.0), "middle": (1, 0.5),
    "front": (2, 0.0), "back": (2, 1.0),
}

# material property -> the Phase field it sets and the factor from its input unit to the internal one
_PROPERTIES = {
    "youngs_modulus": ("youngs", GPA_TO_MPA),
    "poisson": ("poisson", 1.0),
    "density": ("density", KGM3_TO_TONMM3),
}

_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


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


# Value predicates shared by the keys.  YAML booleans are ints in Python, but never numbers here.


def _real(x) -> bool:
    """A finite real number (this also rejects .nan and .inf)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _positive(x) -> bool:
    return _real(x) and x > 0


def _integer(lo: int):
    return lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= lo


def _list_of(ok, n: int):
    """A list of n values that each pass ok: one per axis, or the two bounds of an interval."""
    return lambda x: isinstance(x, list) and len(x) == n and all(ok(e) for e in x)


def _lengths(dim: int):
    """One positive length for every axis, or one per axis."""
    return lambda x: _positive(x) or _list_of(_positive, dim)(x)


def _interval(bound=_real):
    """A number, or an ordered [lo, hi] pair; every bound passes bound."""
    return lambda x: bound(x) or (_list_of(bound, 2)(x) and x[0] <= x[1])


def _per_axis(x, dim: int) -> tuple[float, ...]:
    return tuple(float(e) for e in x) if isinstance(x, list) else (float(x),) * dim


def _scaled_interval(x, factor: float) -> Interval:
    lo, hi = x if isinstance(x, list) else (x, x)
    return Interval(float(lo) * factor, float(hi) * factor)


_REQUIRED = object()  # the default of a key that must be given


class _Validator:
    """Reads the document's keys, collecting every problem and every default it applies."""

    def __init__(self):
        self.problems: list[str] = []
        self.defaults: list[str] = []

    def error(self, msg: str):
        self.problems.append(msg)

    def mapping(self, raw, path: str, allowed):
        """raw if it is a mapping (its unknown keys reported), else None after reporting it."""
        if not isinstance(raw, dict):
            self.error(f"{path}: must be a mapping")
            return None
        for key in raw:
            if key not in allowed:
                self.error(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")
        return raw

    def section(self, parent, key: str, where: str, allowed, required: bool = False):
        """The mapping parent[key]; null counts as absent, and an absent optional section reads as empty.

        None when the section is missing, is not a mapping, or its parent could not be read.
        """
        path = f"{where}.{key}" if where else key
        if parent is None:
            return None
        if parent.get(key) is None:
            if required:
                self.error(f"missing required section {path!r}")
                return None
            return {}
        return self.mapping(parent[key], path, allowed)

    def take(self, section, key: str, where: str, default, expected: str, ok, shown=None):
        """section[key] if it passes ok; an absent key takes the default, recorded as shown (or itself).

        A value that fails ok is reported as "<path>: expected <expected>, got <value>" and the
        default stands in for it so the remaining checks can run; a required key (default
        _REQUIRED) falls back to None.  A section that could not be read yields fallbacks silently.
        """
        path = f"{where}.{key}" if where else key
        fallback = None if default is _REQUIRED else default
        if section is None:
            return fallback
        if key not in section:
            if default is _REQUIRED:
                self.error(f"missing required key {path!r}")
            else:
                self.defaults.append(f"{path} = {default if shown is None else shown}")
            return fallback
        if not ok(section[key]):
            self.error(f"{path}: expected {expected}, got {section[key]!r}")
            return fallback
        return section[key]


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file; raises ConfigError with every problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file: {exc}"]) from exc
    return parse_config_text(text)


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate the text of a run configuration; raises ConfigError with every problem."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
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
    v.mapping(doc, "top level", {"mode", "seed", "geometry", "boundary", "loads", "cell", "materials", "optimizer", "mcs"})
    mode = v.take(doc, "mode", "", "dcto", f"one of {MODES}", lambda x: x in MODES)
    seed = v.take(doc, "seed", "", 0, "a nonnegative integer", _integer(0))

    geo = v.section(doc, "geometry", "", {"dim", "elements", "element_size"}, required=True)
    dim = v.take(geo, "dim", "geometry", 2, "2 or 3", lambda x: isinstance(x, int) and x in (2, 3))
    macro_elements = v.take(geo, "elements", "geometry", _REQUIRED, f"{dim} positive integers", _list_of(_integer(1), dim))
    size = v.take(geo, "element_size", "geometry", 1.0, f"a positive length or {dim} of them", _lengths(dim), "1.0 mm")
    macro_spacing = _per_axis(size, dim)

    kind = "edge" if dim == 2 else "face"
    anchors = [f"{token}-{kind}" for token, (axis, frac) in _AXIS_TOKENS.items() if axis < dim and frac != 0.5]
    bc = v.section(doc, "boundary", "", {"fixed"}, required=True)
    fixed_anchors = v.take(
        bc, "fixed", "boundary", _REQUIRED, f"a nonempty list of anchors from {anchors}",
        lambda x: isinstance(x, list) and x != [] and all(a in anchors for a in x),
    )

    raw_loads = v.take(doc, "loads", "", _REQUIRED, "a nonempty list", lambda x: isinstance(x, list) and x != [])
    loads = [_parse_load(v, entry, dim, f"loads[{i}]") for i, entry in enumerate(raw_loads or [])]
    if len({load.frequency for load in loads if load is not None}) > 1:
        v.error("loads: all loads must share one excitation frequency")
    if macro_elements and loads and None not in loads:
        grid = StructuredGrid(macro_elements, macro_spacing)
        fixed = resolve_fixed_dofs(grid, fixed_anchors) if fixed_anchors else []
        if not np.any(np.delete(resolve_load_vector(grid, loads), fixed)):  # a load on a fixed DOF does no work
            v.error("loads: the loads leave a zero force vector on the free DOFs (zero amplitudes, loads that "
                    "cancel, or loads only on fixed nodes)")

    cell = v.section(doc, "cell", "", {"elements", "element_size", "seed_fraction"})
    # with one voxel along an axis a voxel's opposite faces are one periodic face, so the corrector cannot vary along it
    cell_elements = v.take(
        cell, "elements", "cell", [50, 50] if dim == 2 else [14, 14, 14],
        f"{dim} integers >= 2 (a periodic cell needs at least 2 voxels along every axis)", _list_of(_integer(2), dim),
    )
    cell_size = v.take(
        cell, "element_size", "cell", [1.0 / n for n in cell_elements], f"a positive length or {dim} of them",
        _lengths(dim), f"{1.0 / cell_elements[0]:g} mm (1 mm cell)",
    )
    cell_spacing = _per_axis(cell_size, dim)
    seed_fraction = v.take(cell, "seed_fraction", "cell", 0.05, "a fraction in [0, 1)", lambda x: _real(x) and 0 <= x < 1)

    base_material, params = _parse_materials(v, doc)

    opt = v.section(
        doc, "optimizer", "",
        {"weight_fraction", "evolution_ratio", "penalty", "kappa", "filter_radius_macro",
         "filter_radius_micro", "convergence_tol", "flip_cap", "max_iterations", "beta", "x_min"},
    )
    wf = v.take(opt, "weight_fraction", "optimizer", _REQUIRED, "a fraction in (0, 1]", lambda x: _real(x) and 0 < x <= 1)
    er = v.take(opt, "evolution_ratio", "optimizer", 0.02, "a number > 0", _positive)
    penalty = v.take(
        opt, "penalty", "optimizer", 3.0, "a number > 1 (at p <= 1 a void element's sensitivity factor "
        "p x_min^(p-1) is at least a solid's, p, so voids rank like solids on both scales)",
        lambda x: _real(x) and x > 1,
    )
    kappa = v.take(opt, "kappa", "optimizer", 1.0, "a nonnegative number", lambda x: _real(x) and x >= 0)
    tol = v.take(opt, "convergence_tol", "optimizer", 1e-3, "a number > 0", _positive)
    x_min = v.take(opt, "x_min", "optimizer", X_MIN_DEFAULT, "a number in (0, 1)", lambda x: _real(x) and 0 < x < 1)
    max_iter = v.take(opt, "max_iterations", "optimizer", 500, "a positive integer", _integer(1))
    flip_cap = v.take(
        opt, "flip_cap", "optimizer", 0.05, "null or a fraction in (0, 1]", lambda x: x is None or (_real(x) and 0 < x <= 1)
    )
    beta = v.take(opt, "beta", "optimizer", "auto", "'auto' or a positive number", lambda x: x == "auto" or _positive(x))
    r_mac = v.take(
        opt, "filter_radius_macro", "optimizer", 3.0 * macro_spacing[0], "a positive length", _positive,
        f"{3.0 * macro_spacing[0]:g} mm (3 element sides)",
    )
    r_mic = v.take(
        opt, "filter_radius_micro", "optimizer", 3.0 * cell_spacing[0], "a positive length", _positive,
        f"{3.0 * cell_spacing[0]:g} mm (3 element sides)",
    )

    mcs = v.section(doc, "mcs", "", {"n_interval", "n_random"})
    n_interval = v.take(mcs, "n_interval", "mcs", 64, "an integer >= 2", _integer(2))
    n_random = v.take(mcs, "n_random", "mcs", 2000, "an integer >= 2", _integer(2))

    if v.problems:
        raise ConfigError(v.problems)

    schedule = Schedule(
        target_weight_fraction=float(wf),
        evolution_ratio=float(er),
        kappa=float(kappa),
        convergence_tol=float(tol),
        flip_cap=None if flip_cap is None else float(flip_cap),
        max_iterations=max_iter,
        beta=None if beta == "auto" else beta,
    )
    return RunConfig(
        mode=mode,
        seed=seed,
        dim=dim,
        macro_elements=tuple(macro_elements),
        macro_spacing=macro_spacing,
        fixed_anchors=tuple(fixed_anchors),
        loads=tuple(loads),
        cell_elements=tuple(cell_elements),
        cell_spacing=cell_spacing,
        seed_fraction=float(seed_fraction),
        base_material=base_material,
        params=params,
        schedule=schedule,
        penalty=float(penalty),
        r_min_macro=float(r_mac),
        r_min_micro=float(r_mic),
        x_min=float(x_min),
        mcs_interval=n_interval,
        mcs_random=n_random,
        defaults_applied=tuple(v.defaults),
        raw_text=text,
    )


def _parse_load(v: _Validator, raw, dim: int, where: str) -> LoadSpec | None:
    entry = v.mapping(raw, where, {"location", "direction", "amplitude", "frequency"})
    loc = v.take(entry, "location", where, _REQUIRED, "an anchor string", lambda x: isinstance(x, str))
    direction = v.take(
        entry, "direction", where, "-y", f"'x'/'y'/'z' (optionally signed) or a nonzero {dim}-vector",
        lambda x: _direction(x, dim) is not None,
    )
    amp = v.take(entry, "amplitude", where, _REQUIRED, "a force in N", _real)
    freq = v.take(
        entry, "frequency", where, 0.0, "a nonnegative frequency in Hz", lambda x: _real(x) and x >= 0, "0 Hz (static)"
    )
    if loc is not None:
        try:
            _anchor_fractions(loc, dim)
        except ValueError as exc:
            v.error(f"{where}.location: {exc}")
            loc = None
    if loc is None or amp is None:
        return None
    return LoadSpec(location=loc, direction=_direction(direction, dim), amplitude=float(amp), frequency=float(freq))


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


def _direction(raw, dim: int) -> tuple[float, ...] | None:
    """Unit vector of 'x'/'y'/'z' with an optional sign, or of a nonzero dim-vector; None if raw is neither."""
    if isinstance(raw, str):
        sign = -1.0 if raw.startswith("-") else 1.0
        axis = {"x": 0, "y": 1, "z": 2}.get(raw[1:] if raw.startswith(("-", "+")) else raw)
        if axis is None or axis >= dim:
            return None
        return tuple(sign if a == axis else 0.0 for a in range(dim))
    if _list_of(_real, dim)(raw):
        norm = math.sqrt(sum(float(x) ** 2 for x in raw))
        if 0 < norm < math.inf:
            return tuple(float(x) / norm for x in raw)
    return None


def _parse_materials(v: _Validator, doc: dict) -> tuple[TwoPhaseMaterial | None, UncertainSet | None]:
    n_problems = len(v.problems)
    mats = v.section(doc, "materials", "", {"phase1", "phase2", "share_poisson"}, required=True)
    share = v.take(mats, "share_poisson", "materials", True, "true/false", lambda x: isinstance(x, bool))
    props = {}
    for p in (1, 2):
        phase = f"phase{p}"
        section = v.section(mats, phase, "materials", set(_PROPERTIES), required=True)
        for key, (field, factor) in _PROPERTIES.items():
            where = f"materials.{phase}.{key}"
            # the value after unit conversion must lie in the field's open physical range
            lo, hi = PHYSICAL_RANGES[field]
            bound = lambda x: _real(x) and lo < x * factor < hi
            shown = lo / factor, hi / factor  # the range in input units
            one = "a positive number" if shown == (0.0, math.inf) else "a number in ({:g}, {:g})".format(*shown)
            pair = f"[lo, hi] with {shown[0]:g} < lo <= hi" + (f" < {shown[1]:g}" if shown[1] < math.inf else "")
            raw = v.take(
                section, key, f"materials.{phase}", _REQUIRED, f"{one} or a {{mean, std}} mapping",
                lambda x: bound(x) or isinstance(x, dict),
            )
            if isinstance(raw, dict):
                v.mapping(raw, where, {"mean", "std"})
                mean = v.take(raw, "mean", where, _REQUIRED, f"{one} or {pair}", _interval(bound))
                std = v.take(
                    raw, "std", where, 0.0, "a nonnegative number or [lo, hi] with 0 <= lo <= hi",
                    _interval(lambda x: _real(x) and x >= 0),
                )
            else:
                mean, std = raw, 0.0
            # unit conversion: GPa -> MPa, kg/m^3 -> tonne/mm^3
            props[p, field] = mean, std, factor
    if len(v.problems) > n_problems:
        return None, None

    try:
        iv = {k: (_scaled_interval(mean, factor), _scaled_interval(std, factor)) for k, (mean, std, factor) in props.items()}
        params = UncertainSet([
            HybridParameter(name, *iv[row.phases[0], row.field])
            for name, row in PARAMETERS.items()
            if row.field != "poisson" or (len(row.phases) == 2) == share
        ])
    except ValueError as exc:
        v.error(f"materials: {exc}")
        return None, None
    if share and iv[1, "poisson"] != iv[2, "poisson"]:
        v.error(
            "materials: share_poisson is true but the phases declare different Poisson data; "
            "set share_poisson: false to split them"
        )
    mid = {k: mean.midpoint for k, (mean, _) in iv.items()}
    if not mid[1, "youngs"] > mid[2, "youngs"]:
        v.error("materials: phase 1 must be the stiff phase (E1 > E2 at the midpoint means)")
    if not mid[1, "density"] > mid[2, "density"]:
        v.error("materials: phase 1 must be the heavy phase (rho1 > rho2 at the midpoint means)")
    base = TwoPhaseMaterial(*(Phase(**{f: mid[p, f] for f, _ in _PROPERTIES.values()}) for p in (1, 2)))
    return base, params


def resolve_fixed_dofs(grid: StructuredGrid, anchors) -> np.ndarray:
    """All DOFs of the nodes on the named edges/faces."""
    planes = (_AXIS_TOKENS[anchor.split("-")[0]] for anchor in anchors)  # frac 0 or 1: the first or last plane
    nodes = unique_ids(np.concatenate([np.take(grid.node_ids, -int(frac), axis).ravel() for axis, frac in planes]))
    return (grid.dim * nodes[:, None] + np.arange(grid.dim)[None, :]).ravel()


def resolve_load_vector(grid: StructuredGrid, loads) -> np.ndarray:
    """Assemble the nodal load vector from geometric anchors (deterministic rounding)."""
    f = np.zeros(grid.n_dofs)
    for load in loads:
        frac = _anchor_fractions(load.location, grid.dim)
        node = int(grid.node_ids[tuple(int(math.floor(fr * n + 0.5)) for fr, n in zip(frac, grid.shape))])
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
