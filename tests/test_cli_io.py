"""Configuration ingestion, field export, result bundles and the CLI."""

import dataclasses
import itertools
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import rcto.config
from rcto.beso import Schedule, initial_state, run
from rcto.cli import main
from rcto.config import (
    GPA_TO_MPA,
    KGM3_TO_TONMM3,
    LoadSpec,
    build_problem,
    parse_config,
    resolve_fixed_dofs,
    resolve_load_vector,
)
from rcto.errors import ConfigError, OutputError
from rcto.fem import StructuredGrid
from rcto.io import (
    export_field_csv,
    export_field_vtk,
    import_field_csv,
    load_bundle,
    reevaluate_bundle,
    verify,
    write_bundle,
)
from rcto.uncertainty import UncertainSet

from conftest import box_indices, degenerate_params, full_state, steel_foam

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, "..", "configs")


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def small_doc(**overrides):
    doc = {
        "mode": "rcto",
        "seed": 7,
        "geometry": {"dim": 2, "elements": [6, 2], "element_size": 5.0},
        "boundary": {"fixed": ["left-edge"]},
        "loads": [{"location": "right-bottom", "direction": "-y",
                   "amplitude": 1000.0, "frequency": 0.0}],
        "cell": {"elements": [4, 4], "element_size": 0.25, "seed_fraction": 0.1},
        "materials": {
            "share_poisson": True,
            "phase1": {"youngs_modulus": {"mean": [190.0, 210.0], "std": [19.0, 21.0]},
                       "poisson": {"mean": [0.285, 0.315], "std": [0.001425, 0.001575]},
                       "density": {"mean": [7900.0, 8100.0], "std": [790.0, 810.0]}},
            "phase2": {"youngs_modulus": {"mean": [140.0, 160.0], "std": [14.0, 16.0]},
                       "poisson": {"mean": [0.285, 0.315], "std": [0.001425, 0.001575]},
                       "density": {"mean": [790.0, 810.0], "std": [79.0, 81.0]}},
        },
        "optimizer": {"weight_fraction": 0.5, "kappa": 1.0,
                      "filter_radius_macro": 15.0, "filter_radius_micro": 0.5},
        "mcs": {"n_interval": 4, "n_random": 200},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_long_cantilever_example_file(self):
        cfg = parse_config(os.path.join(CONFIGS, "cantilever_2d.yaml"))
        assert cfg.mode == "rcto"
        assert cfg.macro_elements == (120, 40) and cfg.cell_elements == (50, 50)
        assert cfg.schedule.target_weight_fraction == 0.5
        assert cfg.schedule.kappa == 1.0
        assert np.isclose(cfg.omega, 2 * math.pi * 500.0)
        # unit conversion: 200 GPa -> 2e5 MPa, 8000 kg/m^3 -> 8e-9 t/mm^3
        assert np.isclose(cfg.base_material.phase1.youngs, 200.0 * GPA_TO_MPA)
        assert np.isclose(cfg.base_material.phase1.density, 8000.0 * KGM3_TO_TONMM3)
        assert cfg.params.names == ("e1", "e2", "nu", "rho1", "rho2")
        load = cfg.loads[0]
        assert load.amplitude == 1000.0 and load.direction == (0.0, -1.0)

    def test_empty_file_lists_required_sections(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        msg = str(err.value)
        for section in ("geometry", "boundary", "loads", "materials", "optimizer"):
            assert section in msg

    def test_kappa_default_logged(self, tmp_path, caplog):
        doc = small_doc()
        del doc["optimizer"]["kappa"]
        path = write_config(tmp_path, doc)
        with caplog.at_level(logging.INFO, logger="rcto.config"):
            cfg = parse_config(path)
        assert cfg.schedule.kappa == 1.0
        assert any("kappa" in line for line in cfg.defaults_applied)
        assert any("kappa" in rec.message for rec in caplog.records)

    def test_unknown_keys_rejected(self, tmp_path):
        doc = small_doc()
        doc["optimizer"]["volum_fraction"] = 0.5
        doc["geometry"]["thickness"] = 2.0
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "volum_fraction" in str(err.value) and "thickness" in str(err.value)

    def test_all_problems_reported_not_just_first(self, tmp_path):
        doc = small_doc()
        doc["mode"] = "fancy"
        doc["geometry"]["elements"] = [6]
        doc["optimizer"]["weight_fraction"] = 2.0
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert len(err.value.problems) >= 3

    def test_phase_order_enforced(self, tmp_path):
        doc = small_doc()
        doc["materials"]["phase2"]["density"] = {"mean": [9000.0, 9100.0], "std": 0.0}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="heavy phase"):
            parse_config(path)

    def test_scalar_properties_mean_degenerate(self, tmp_path):
        doc = small_doc(mode="dcto")
        for phase in ("phase1", "phase2"):
            sec = doc["materials"][phase]
            for key in sec:
                sec[key] = sec[key]["mean"][0] if key != "poisson" else 0.3
        path = write_config(tmp_path, doc)
        cfg = parse_config(path)
        assert all(p.mean.degenerate and p.std.lo == 0.0 for p in cfg.params)

    def test_split_poisson_gives_six_parameters(self, tmp_path):
        doc = small_doc()
        doc["materials"]["share_poisson"] = False
        doc["materials"]["phase2"]["poisson"] = {"mean": [0.25, 0.27], "std": 0.001}
        path = write_config(tmp_path, doc)
        cfg = parse_config(path)
        assert cfg.params.names == ("e1", "e2", "nu1", "nu2", "rho1", "rho2")

    def test_mismatched_poisson_with_share_rejected(self, tmp_path):
        doc = small_doc()
        doc["materials"]["phase2"]["poisson"] = {"mean": [0.25, 0.27], "std": 0.001}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="share_poisson"):
            parse_config(path)

    def test_inconsistent_load_frequencies_rejected(self, tmp_path):
        doc = small_doc()
        doc["loads"] = [
            {"location": "right-bottom", "amplitude": 1.0, "frequency": 100.0},
            {"location": "right-top", "amplitude": 1.0, "frequency": 200.0},
        ]
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="frequency"):
            parse_config(path)

    @pytest.mark.parametrize("loads", [
        [{"location": "right-bottom", "amplitude": 0.0}],
        [{"location": "right-bottom", "direction": "-y", "amplitude": 1000.0},
         {"location": "right-bottom", "direction": "y", "amplitude": 1000.0}],
    ], ids=["zero-amplitude", "opposite-loads"])
    def test_loads_resolving_to_a_zero_force_vector_rejected(self, tmp_path, capsys, loads):
        path = write_config(tmp_path, small_doc(loads=loads))
        with pytest.raises(ConfigError, match="loads: .*zero force vector"):
            parse_config(path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "error[config]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, location", [("dcto", "left-bottom"), ("rcto", "left-center")])
    def test_load_on_clamped_nodes_rejected(self, tmp_path, capsys, mode, location):
        # the left edge is fixed, so the load does no work and every compliance would be zero
        with open(os.path.join(CONFIGS, "cantilever_small.yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["mode"] = mode
        doc["loads"][0]["location"] = location
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and "zero force vector on the free DOFs" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, elements", [("dcto", [1, 1]), ("rcto", [1, 1]), ("dcto", [2, 1])])
    def test_cell_with_one_voxel_along_an_axis_rejected(self, tmp_path, capsys, mode, elements):
        # such cells used to finish "converged" far from the weight target (0.8958 or 0.9792 against 0.5)
        with open(os.path.join(CONFIGS, "cantilever_small.yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["cell"]["elements"] = elements
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.problems == [
            f"cell.elements: expected 2 integers >= 2 (a periodic cell needs at least 2 voxels along every axis), "
            f"got {elements!r}"
        ]
        assert main(["run", "--config", path, "--out", str(tmp_path / "o"), "--mode", mode]) == 2
        assert "error[config]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def set_key(doc, dotted, value):
    """doc with the key at a reported path such as ``loads[0].amplitude`` set to value."""
    *parents, last = dotted.replace("[0]", ".0").split(".")
    for part in parents:
        doc = doc[int(part)] if part.isdigit() else doc[part]
    doc[last] = value


def config_fields(cfg):
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "raw_text"}
    fields["params"] = cfg.params.parameters
    return fields


# every numeric key as the validator reports it, with one value outside its range
NUMERIC_KEYS = [
    ("seed", -1),
    ("geometry.dim", 4),
    ("geometry.element_size", 0.0),
    ("loads[0].amplitude", "1 kN"),
    ("loads[0].frequency", -1.0),
    ("cell.element_size", -0.25),
    ("cell.seed_fraction", 1.0),
    ("materials.phase1.youngs_modulus.mean", [210.0, 190.0]),
    ("materials.phase2.density.std", -1.0),
    ("optimizer.weight_fraction", 1.5),
    ("optimizer.evolution_ratio", 0.0),
    ("optimizer.penalty", -3.0),
    ("optimizer.kappa", -1.0),
    ("optimizer.filter_radius_macro", 0.0),
    ("optimizer.filter_radius_micro", -0.5),
    ("optimizer.convergence_tol", 0.0),
    ("optimizer.flip_cap", 1.5),
    ("optimizer.max_iterations", 0),
    ("optimizer.beta", 0.0),
    ("optimizer.x_min", 1.0),
    ("mcs.n_interval", 1),
    ("mcs.n_random", 1),
]

SHIPPED_DEFAULTS = {
    "cantilever_2d.yaml": (
        "optimizer.x_min = 1e-06", "optimizer.max_iterations = 500", "optimizer.flip_cap = 0.05",
        "optimizer.beta = auto", "mcs.n_interval = 64", "mcs.n_random = 2000",
    ),
    "cantilever_small.yaml": (
        "optimizer.x_min = 1e-06", "optimizer.max_iterations = 500", "optimizer.flip_cap = 0.05",
        "optimizer.beta = auto",
    ),
    "mbb_2d.yaml": (
        "cell.seed_fraction = 0.05", "optimizer.evolution_ratio = 0.02", "optimizer.penalty = 3.0",
        "optimizer.convergence_tol = 0.001", "optimizer.x_min = 1e-06", "optimizer.max_iterations = 500",
        "optimizer.flip_cap = 0.05", "optimizer.beta = auto",
        "optimizer.filter_radius_macro = 3 mm (3 element sides)",
        "optimizer.filter_radius_micro = 0.06 mm (3 element sides)",
        "mcs.n_interval = 64", "mcs.n_random = 2000",
    ),
    "prism_3d.yaml": (
        "cell.seed_fraction = 0.05", "optimizer.evolution_ratio = 0.02", "optimizer.penalty = 3.0",
        "optimizer.convergence_tol = 0.001", "optimizer.x_min = 1e-06", "optimizer.max_iterations = 500",
        "optimizer.flip_cap = 0.05", "optimizer.beta = auto", "mcs.n_interval = 64", "mcs.n_random = 2000",
    ),
}


class TestConfigFields:
    @pytest.mark.parametrize(
        "key, value",
        [(key, bad) for key, out_of_range in NUMERIC_KEYS for bad in (True, math.nan, math.inf, out_of_range)]
        + [("geometry.dim", 2.0), ("optimizer.penalty", 1.0), ("optimizer.penalty", 0.5)],
    )
    def test_bad_number_rejected_by_name(self, tmp_path, key, value):
        doc = small_doc()
        set_key(doc, key, value)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, doc))
        assert any(p.startswith(f"{key}: expected") for p in err.value.problems), err.value.problems

    @pytest.mark.parametrize(
        "key",
        [key for key, _ in NUMERIC_KEYS]
        + ["mode", "geometry.elements", "boundary.fixed", "loads[0].location", "loads[0].direction",
           "cell.elements", "materials.share_poisson"],
    )
    def test_null_accepted_only_for_flip_cap(self, tmp_path, key):
        doc = small_doc()
        set_key(doc, key, None)
        path = write_config(tmp_path, doc)
        if key == "optimizer.flip_cap":
            assert parse_config(path).schedule.flip_cap is None
            return
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert any(p.startswith(f"{key}: expected") for p in err.value.problems), err.value.problems

    @pytest.mark.parametrize(
        "key, value",
        [
            ("materials.phase2.youngs_modulus.mean", [-160.0, -140.0]),
            ("materials.phase2.youngs_modulus.mean", [0.0, 160.0]),
            ("materials.phase1.youngs_modulus", -200.0),
            ("materials.phase1.density.mean", [-10.0, 8100.0]),
            ("materials.phase2.density.mean", 0.0),
            ("materials.phase2.density", -800.0),
        ],
    )
    def test_nonpositive_modulus_or_density_rejected_by_name(self, tmp_path, key, value):
        doc = small_doc()
        set_key(doc, key, value)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, doc))
        assert any(p.startswith(f"{key}: expected a positive number") for p in err.value.problems), err.value.problems

    @pytest.mark.parametrize(
        "key, value",
        [
            ("materials.phase1.poisson.mean", [0.3, 0.5]),
            ("materials.phase1.poisson.mean", [-1.0, 0.3]),
            ("materials.phase2.poisson", 0.6),
        ],
    )
    def test_poisson_outside_physical_range_rejected_by_name(self, tmp_path, key, value):
        doc = small_doc()
        doc["materials"]["share_poisson"] = False
        set_key(doc, key, value)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, doc))
        assert any(p.startswith(f"{key}: expected a number in (-1, 0.5)") for p in err.value.problems), err.value.problems

    def test_poisson_near_its_upper_bound_accepted(self, tmp_path):
        doc = small_doc()
        for phase in ("phase1", "phase2"):
            doc["materials"][phase]["poisson"] = {"mean": [0.4985, 0.4995], "std": 0.0001}
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.base_material.phase1.poisson == cfg.base_material.phase2.poisson == 0.499

    @pytest.mark.parametrize("section", ["cell", "mcs", "optimizer"])
    def test_null_section_reads_as_absent(self, tmp_path, section):
        absent, null = small_doc(), small_doc()
        del absent[section]
        null[section] = None
        results = []
        for name, doc in (("absent.yaml", absent), ("null.yaml", null)):
            try:
                results.append(config_fields(parse_config(write_config(tmp_path, doc, name))))
            except ConfigError as exc:
                results.append(exc.problems)
        assert results[0] == results[1]

    @pytest.mark.parametrize("name", sorted(SHIPPED_DEFAULTS))
    def test_shipped_config_defaults_pinned(self, name):
        assert parse_config(os.path.join(CONFIGS, name)).defaults_applied == SHIPPED_DEFAULTS[name]


# anchor token -> (axis, fraction of the grid's length along it)
SIDES = {
    "left": (0, 0.0), "right": (0, 1.0), "bottom": (1, 0.0), "top": (1, 1.0), "middle": (1, 0.5),
    "front": (2, 0.0), "back": (2, 1.0),
}


def node_fractions(grid):
    """Each node's position as a fraction of the grid's length along each axis, rows in x-fastest node order."""
    return box_indices(grid.nodes_shape) / np.array(grid.shape)


def face_dofs(grid, tokens):
    """DOFs of every node whose coordinates lie on one of the named faces."""
    frac = node_fractions(grid)
    nodes = np.flatnonzero(np.any([np.isclose(frac[:, SIDES[t][0]], SIDES[t][1]) for t in tokens], axis=0))
    return (grid.dim * nodes[:, None] + np.arange(grid.dim)).ravel()


class TestAnchors:
    @pytest.mark.parametrize("shape", [(3, 2), (1, 4), (5, 1), (3, 2, 4), (2, 1, 1), (1, 3, 2)])
    def test_fixed_dofs_match_a_coordinate_mask_for_every_anchor(self, shape):
        dim = len(shape)
        grid = StructuredGrid(shape, tuple(0.5 + a for a in range(dim)))
        kind = "edge" if dim == 2 else "face"
        tokens = [t for t, (axis, frac) in SIDES.items() if axis < dim and frac != 0.5]
        for combo in [[t] for t in tokens] + [tokens[:2], tokens[1:3], tokens]:
            dofs = resolve_fixed_dofs(grid, [f"{t}-{kind}" for t in combo])
            assert np.array_equal(dofs, face_dofs(grid, combo)), combo

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4, 6)])
    def test_load_node_of_every_anchor_matches_nodal_coordinates(self, shape):
        dim = len(shape)
        grid = StructuredGrid(shape, tuple(0.5 + a for a in range(dim)))
        frac = node_fractions(grid)
        direction = (1.0, -2.0, 3.0)[:dim]
        per_axis = [[None] + [t for t, (axis, _) in SIDES.items() if axis == a] for a in range(dim)]
        for combo in itertools.product(*per_axis):
            tokens = [t for t in combo if t]
            locations = ["-".join(tokens)] if tokens else []
            if len(tokens) < dim:
                locations.append("-".join(tokens + ["center"]))
            for location in locations:
                target = [0.5] * dim  # unassigned axes, and the one 'center' assigns, sit at the middle
                for t in tokens:
                    target[SIDES[t][0]] = SIDES[t][1]
                (node,) = np.flatnonzero(np.all(np.isclose(frac, target), axis=1))
                f = resolve_load_vector(grid, [LoadSpec(location, direction, 2.5, 0.0)])
                expected = np.zeros(grid.n_dofs)
                expected[dim * node : dim * node + dim] = 2.5 * np.array(direction)
                assert np.array_equal(f, expected), location

    @pytest.mark.parametrize("name", ["cantilever_2d.yaml", "cantilever_small.yaml", "mbb_2d.yaml", "prism_3d.yaml"])
    def test_shipped_config_fixes_only_the_faces_it_names(self, name):
        path = os.path.join(CONFIGS, name)
        with open(path, encoding="utf-8") as fh:
            anchors = yaml.safe_load(fh)["boundary"]["fixed"]
        problem = build_problem(parse_config(path))
        assert np.array_equal(problem.fixed_dofs, face_dofs(problem.grid, [a.split("-")[0] for a in anchors]))

    def test_fixed_edge_resolution(self):
        grid = StructuredGrid((3, 2), (1.0, 1.0))
        dofs = resolve_fixed_dofs(grid, ["left-edge"])
        nodes = sorted(set(d // 2 for d in dofs))
        assert nodes == [0, 4, 8]

    def test_load_anchor_corners_and_centers(self):
        cfg = parse_config(os.path.join(CONFIGS, "cantilever_2d.yaml"))
        grid = cfg.macro_grid()
        f = resolve_load_vector(grid, cfg.loads)
        node = 120  # right-bottom corner node, x fastest numbering
        assert f[2 * node + 1] == -1000.0
        assert np.count_nonzero(f) == 1

    def test_bottom_center_anchor(self):
        cfg = parse_config(os.path.join(CONFIGS, "mbb_2d.yaml"))
        grid = cfg.macro_grid()
        f = resolve_load_vector(grid, cfg.loads)
        node = 45  # (45, 0) on a 90-element-wide grid
        assert f[2 * node + 1] == -1000.0


class TestFieldExport:
    def test_csv_round_trip_exact(self, tmp_path, rng):
        grid = StructuredGrid((5, 3), (1.0, 2.0))
        field = np.where(rng.random(grid.n_elems) < 0.5, 1.0, 1e-6)
        path = str(tmp_path / "field.csv")
        export_field_csv(path, grid, field)
        back = import_field_csv(path, grid)
        assert np.array_equal(back, field)

    def test_all_solid_two_by_two(self, tmp_path):
        grid = StructuredGrid((2, 2), (1.0, 1.0))
        path = str(tmp_path / "solid.csv")
        export_field_csv(path, grid, np.ones(4))
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 5 and all(line.endswith("1.0") for line in lines[1:])

    def test_checkerboard_vtk_matches_golden_file(self, tmp_path):
        grid = StructuredGrid((2, 2), (1.0, 1.0))
        field = np.array([1.0, 1e-6, 1e-6, 1.0])
        path = str(tmp_path / "checker.vtk")
        export_field_vtk(path, grid, field)
        golden = open(os.path.join(HERE, "golden", "checkerboard_2x2.vtk"), "rb").read()
        assert open(path, "rb").read() == golden

    def test_wrong_field_size_rejected(self, tmp_path):
        grid = StructuredGrid((2, 2), (1.0, 1.0))
        with pytest.raises(OutputError):
            export_field_csv(str(tmp_path / "x.csv"), grid, np.ones(5))

    def test_unwritable_path_raises_output_error(self):
        grid = StructuredGrid((2, 2), (1.0, 1.0))
        with pytest.raises(OutputError):
            export_field_vtk("/nonexistent-dir/x.vtk", grid, np.ones(4))


class TestVerifyReport:
    def test_degenerate_uncertainty_gives_zero_errors(self):
        mat = steel_foam()
        from conftest import cantilever

        prob = cantilever(4, 2, cell_n=3)
        state = full_state(prob)
        report, calls = verify(
            prob, state, mat, degenerate_params(mat), kappa=1.0,
            n_interval=2, n_random=16, seed=0,
        )
        errs = report.relative_errors()
        assert errs["expectation"] <= 1e-12
        assert report.ihpa.std == 0.0 and report.mcs.std == 0.0
        assert calls == 16
        table = report.format_table(calls)
        assert "FEA calls" in table and "16" in table
        assert table.splitlines()[-2:] == [
            # a homogeneous cell has rounding-level loads, so zero correctors and no cell solve
            "(Monte Carlo reduced bases: cell 0 columns from 0 full solves, macro 1 columns from 1 full solves)",
            "(Monte Carlo standard errors: expectation 0.000000, standard variance 0.000000)",
        ]

    def test_relative_errors_recomputable_from_raw_numbers(self):
        mat = steel_foam()
        from conftest import cantilever, hybrid_params

        prob = cantilever(4, 2, cell_n=3)
        state = full_state(prob)
        report, _ = verify(
            prob, state, mat, hybrid_params(mat, mean_frac=0.04, cov=0.04),
            kappa=1.0, n_interval=4, n_random=200, seed=1,
        )
        errs = report.relative_errors()
        assert np.isclose(
            errs["expectation"],
            abs(report.ihpa.expectation - report.mcs.expectation) / abs(report.mcs.expectation),
            rtol=1e-12,
        )
        assert np.isclose(
            errs["objective"],
            abs(report.ihpa.objective - report.mcs_objective) / abs(report.mcs_objective),
            rtol=1e-12,
        )


class TestBundle:
    def _run_small(self, tmp_path, mode="dcto", max_iterations=None):
        doc = small_doc(mode=mode)
        if max_iterations is not None:
            doc["optimizer"]["max_iterations"] = max_iterations
        path = write_config(tmp_path, doc)
        cfg = parse_config(path)
        problem = build_problem(cfg)
        params = cfg.params if mode == "rcto" else UncertainSet()
        result = run(
            problem, cfg.base_material, params, cfg.schedule,
            r_min_macro=cfg.r_min_macro, r_min_micro=cfg.r_min_micro,
            seed_fraction=cfg.seed_fraction, x_min=cfg.x_min,
        )
        outdir = str(tmp_path / "bundle")
        write_bundle(outdir, cfg, problem, result)
        assert max_iterations is None or not result.converged
        return outdir

    @pytest.mark.parametrize("mode", ["dcto", "rcto"])
    def test_reevaluation_reproduces_logged_objective(self, tmp_path, mode):
        outdir = self._run_small(tmp_path, mode=mode)
        logged, recomputed = reevaluate_bundle(outdir)
        assert abs(logged - recomputed) <= 1e-9 * abs(logged)

    @pytest.mark.parametrize("mode", ["dcto", "rcto"])
    def test_reevaluation_after_iteration_cap(self, tmp_path, mode):
        # a run stopped by max_iterations saves the design its last objective
        # was evaluated at; on this config the update after iteration 10 flips elements
        outdir = self._run_small(tmp_path, mode=mode, max_iterations=10)
        logged, recomputed = reevaluate_bundle(outdir)
        assert abs(logged - recomputed) <= 1e-9 * abs(logged)

    def test_bundle_contents(self, tmp_path):
        outdir = self._run_small(tmp_path)
        names = set(os.listdir(outdir))
        assert {"config.yaml", "history.csv", "summary.json",
                "macro_density.csv", "micro_density.csv",
                "macro_density.vtk", "micro_density.vtk",
                "effective_elasticity.txt"} <= names
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["mode"] == "dcto" and "defaults_applied" in summary
        cfg, problem, state, _ = load_bundle(outdir)
        assert state.x_macro.size == problem.grid.n_elems


class TestCli:
    def test_run_and_export_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, small_doc(mode="dcto"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "history.csv"))
        exp = str(tmp_path / "exported")
        assert main(["export", "--bundle", out, "--format", "csv", "--out", exp]) == 0
        grid = StructuredGrid((6, 2), (5.0, 5.0))
        a = import_field_csv(os.path.join(out, "macro_density.csv"), grid)
        b = import_field_csv(os.path.join(exp, "macro_density.csv"), grid)
        assert np.array_equal(a, b)

    def test_mode_and_seed_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, small_doc(mode="rcto"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out, "--mode", "dcto", "--seed", "9"]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["mode"] == "dcto" and summary["seed"] == 9
        # re-evaluation must honor the overridden mode, not the echoed config
        logged, recomputed = reevaluate_bundle(out)
        assert abs(logged - recomputed) <= 1e-9 * abs(logged)

    def test_dump_iterations_writes_snapshots(self, tmp_path):
        cfg_path = write_config(tmp_path, small_doc(mode="dcto"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_path, "--out", out, "--dump-iterations"]) == 0
        files = os.listdir(os.path.join(out, "iterations"))
        assert any(name.endswith("_macro.csv") for name in files)

    @pytest.mark.slow
    def test_verify_subcommand_writes_report(self, tmp_path):
        cfg_path = write_config(tmp_path, small_doc(mode="verify"))
        out = str(tmp_path / "ver")
        assert main(["verify", "--config", cfg_path, "--out", out]) == 0
        text = open(os.path.join(out, "verification.txt")).read()
        assert "IHPA" in text and "MCS" in text and "rel. error" in text
        assert "(Monte Carlo reduced bases: cell " in text

    def test_verify_table_of_the_small_cantilever_is_pinned(self, tmp_path, capsys):
        # the shipped small cantilever with 16 interval points of 20 samples: 1,040 outer points, 20,800 samples
        with open(os.path.join(CONFIGS, "cantilever_small.yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["mcs"] = {"n_interval": 16, "n_random": 20}
        assert main(["verify", "--config", write_config(tmp_path, doc), "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for expected in (
            f"{'expectation':<20}{'635.454253':>16}{'683.522233':>16}",
            f"{'standard variance':<20}{'70.004101':>16}{'113.565392':>16}",
            f"{'FEA calls':<20}{16:>16}{20800:>16}",
            "(Monte Carlo reduced bases: cell 21 columns from 7 full solves, macro 15 columns from 15 full solves)",
        ):
            assert any(line.startswith(expected) for line in lines), expected

    def test_config_error_exit_code_and_category(self, tmp_path, capsys):
        doc = small_doc()
        doc["optimizer"]["bogus_key"] = 1
        cfg_path = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"mode: rcto\nseed: \xff\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # weight target below the empty-design floor: structured numerical error
        doc = small_doc(mode="dcto")
        doc["optimizer"]["weight_fraction"] = 1e-9
        cfg_path = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error[numerical]" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dcto", "rcto"])
    def test_drive_above_the_first_natural_frequency_exits_3(self, tmp_path, capsys, mode):
        # the small cantilever's seed design is already above its first natural frequency at 5 kHz, where
        # a signed dynamic compliance has no useful minimum (Olhoff and Du 2016; Jog 2002)
        with open(os.path.join(CONFIGS, "cantilever_small.yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["loads"][0]["frequency"] = 5000.0
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out), "--mode", mode]) == 3
        err = capsys.readouterr().err
        assert "error[numerical]" in err and "at or above the first natural frequency" in err
        assert "iteration 0: drive 5000 Hz: Cholesky refused" in err
        assert not (out / "summary.json").exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["export", "--bundle", str(tmp_path / "missing"), "--format", "csv",
                     "--out", str(tmp_path / "o")])
        assert code == 4
        assert "error[io]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_unwritable_out_fails_before_the_computation(self, tmp_path, capsys, monkeypatch, command):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")

        def computation(*args, **kwargs):  # would end in error[internal], exit 1
            raise RuntimeError("computation started before the output directory was checked")

        monkeypatch.setattr("rcto.beso.run", computation)
        monkeypatch.setattr("rcto.io.verify", computation)
        cfg_path = write_config(tmp_path, small_doc(mode="dcto" if command == "run" else "verify"))
        code = main([command, "--config", cfg_path, "--out", str(blocker / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[io]" in err and str(blocker / "out") in err

    def test_export_to_unwritable_out(self, tmp_path, capsys):
        doc = small_doc(mode="dcto")
        doc["optimizer"]["max_iterations"] = 2
        bundle = tmp_path / "bundle"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(bundle)]) == 0
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        argv = ["export", "--bundle", str(bundle), "--format", "csv", "--out", str(blocker / "out")]
        assert main(argv) == 4
        assert "error[io]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_seed_rejected_when_parsed(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, small_doc(mode="verify"))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.slow
    def test_run_in_verify_mode_parses_config_once(self, tmp_path, caplog):
        cfg_path = write_config(tmp_path, small_doc(mode="verify"))
        with caplog.at_level(logging.INFO, logger="rcto.config"):
            assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "ver")]) == 0
        logged = [rec.message for rec in caplog.records if rec.message.startswith("config default applied")]
        assert logged and len(logged) == len(set(logged))

    @pytest.mark.parametrize(
        "text, code, category",
        [("mode: [rcto\n", 2, "config"), ("- mode\n- rcto\n", 2, "config"), (None, 4, "io")],
        ids=["invalid-yaml", "list-root", "missing"],
    )
    def test_export_of_corrupt_bundle_config(self, tmp_path, capsys, text, code, category):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "summary.json").write_text("{}", encoding="utf-8")
        if text is not None:
            (bundle / "config.yaml").write_text(text, encoding="utf-8")
        argv = ["export", "--bundle", str(bundle), "--format", "csv", "--out", str(tmp_path / "o")]
        assert main(argv) == code
        assert f"error[{category}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("summary.json", "{not json", "cannot load bundle"),
            ("macro_density.csv", "i,j,value\n0,x,1.0\n", "bad row 2"),
            ("macro_density.csv", "i,j,value\n6,0,1.0\n", "bad row 2"),
            ("micro_density.csv", "i,j,value\n0,0\n", "bad row 2"),
            ("macro_density.csv", "i,j,value\n0,0,1.0\n", "11 elements missing, the first at (1, 0)"),
            ("micro_density.csv", "i,j,value\n0,0,7.5\n", "bad row 2 '0,0,7.5': density must"),
            ("micro_density.csv", "i,j,value\n0,0,1.0\n0,0,1.0\n", "bad row 3 '0,0,1.0': element listed twice"),
        ],
        ids=[
            "summary-not-json", "csv-bad-index", "csv-index-out-of-range", "csv-short-row",
            "csv-missing-rows", "csv-density-out-of-range", "csv-duplicate-row",
        ],
    )
    def test_export_of_corrupt_bundle_data(self, tmp_path, capsys, name, text, message):
        doc = small_doc(mode="dcto")
        doc["optimizer"]["max_iterations"] = 2
        bundle = tmp_path / "bundle"
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(bundle)]) == 0
        (bundle / name).write_text(text, encoding="utf-8")
        argv = ["export", "--bundle", str(bundle), "--format", "csv", "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "error[io]" in err and message in err
        if name.endswith(".csv"):
            assert name in err

    def test_determinism_byte_identical_history(self, tmp_path):
        cfg_path = write_config(tmp_path, small_doc(mode="rcto"))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg_path, "--out", out1]) == 0
        assert main(["run", "--config", cfg_path, "--out", out2]) == 0
        h1 = open(os.path.join(out1, "history.csv"), "rb").read()
        h2 = open(os.path.join(out2, "history.csv"), "rb").read()
        assert h1 == h2

    @staticmethod
    def _python(code: str) -> str:
        src = os.path.join(HERE, "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    @pytest.mark.parametrize(
        "module, expected",
        [("scipy.ndimage", []), ("scipy.sparse", []), ("scipy.linalg", ["scipy.linalg._flapack"]),
         ("scipy", ["scipy.linalg._flapack"])],
        ids=["scipy.ndimage", "scipy.sparse", "scipy.linalg", "scipy"],
    )
    def test_import_leaves_out_unused_scipy_modules(self, module, expected):
        # the sensitivity filter once imported scipy.ndimage, about 0.1 s of every start-up, for one call;
        # scipy.sparse builds only the reference matrices of the tests, and held about 4 MB of every run;
        # the scipy.linalg package cost about 0.25 s and 27 MB for the two LAPACK routines of its _flapack;
        # the scipy root package cost 16-19 ms and 1.3 MB (its config, test utilities and subprocess)
        code = f"import sys, rcto.cli; print(sorted(m for m in sys.modules if m.startswith({module!r})))"
        assert self._python(code) == repr(expected)

    def test_run_leaves_out_numpy_random_and_numpy_ma(self, tmp_path):
        # only ``rcto verify`` draws random numbers, and numpy.random holds about 6 MB; plain np.unique and
        # np.median import numpy.ma, which no run uses.  Older numpy imports both with numpy itself, so only
        # what a run adds to a bare ``import numpy`` counts.
        with open(os.path.join(CONFIGS, "cantilever_small.yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["optimizer"]["max_iterations"] = 1
        config = write_config(tmp_path, doc)
        code = (
            "import sys, numpy; bare = set(sys.modules); import rcto.cli; "
            f"rcto.cli.build_problem(rcto.cli.parse_config({config!r})); "
            f"code = rcto.cli.main(['run', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(code, sorted(m for m in set(sys.modules) - bare if m.split('.')[:2] in "
            "(['numpy', 'random'], ['numpy', 'ma'])))"
        )
        assert self._python(code).splitlines()[-1] == "0 []"

    def test_verify_in_a_fresh_process_prints_the_same_table(self, tmp_path, capsys):
        # numpy.random loads inside the verify command, not at import; the table at a fixed seed is the same
        with open(os.path.join(CONFIGS, "cantilever_small.yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        doc["mcs"] = {"n_interval": 4, "n_random": 20}
        argv = ["verify", "--config", write_config(tmp_path, doc), "--seed", "1"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        code = f"import sys, rcto.cli; sys.exit(rcto.cli.main({argv!r}))"
        assert self._python(code) == table.strip()

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_libyaml_reads_every_shipped_config_as_the_python_scanner_does(self, name):
        # parse_config_text reads with yaml.CSafeLoader, about 8 times faster on prism_3d.yaml
        assert rcto.config._YAML_LOADER is yaml.CSafeLoader
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            text = fh.read()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("first", ["rcto.fem", "scipy.linalg.lapack"])
    def test_band_routines_are_scipy_lapack_routines(self, first):
        # rcto loads scipy.linalg._flapack on its own; either import order must end with one module object
        second = "scipy.linalg.lapack" if first == "rcto.fem" else "rcto.fem"
        code = (
            f"import importlib, sys; importlib.import_module({first!r}); importlib.import_module({second!r}); "
            "import rcto.fem as fem, scipy.linalg.lapack as lapack; "
            "print(fem.dpbtrf is lapack.dpbtrf, fem.dpbtrs is lapack.dpbtrs, "
            "lapack._flapack is sys.modules['scipy.linalg._flapack'])"
        )
        assert self._python(code) == "True True True"
