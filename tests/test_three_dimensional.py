"""3D coverage: hex elements end to end, from config to a converged run."""

import os

import numpy as np
import yaml

from rcto.beso import Schedule, run
from rcto.cli import main
from rcto.config import build_problem, parse_config
from rcto.fem import StructuredGrid
from rcto.homogenization import homogenize, seed_cell
from rcto.uncertainty import BatchComplianceEvaluator, UncertainSet

from conftest import full_state, hybrid_params, reference_compliance, steel_foam

MAT = steel_foam()


def prism_doc():
    return {
        "mode": "dcto",
        "geometry": {"dim": 3, "elements": [4, 2, 2], "element_size": 2.0},
        "boundary": {"fixed": ["left-face"]},
        "loads": [{"location": "right-bottom", "direction": "-y",
                   "amplitude": 1000.0, "frequency": 0.0}],
        "cell": {"elements": [3, 3, 3], "element_size": 0.3333333333333333,
                 "seed_fraction": 0.05},
        "materials": {
            "share_poisson": True,
            "phase1": {"youngs_modulus": 200.0, "poisson": 0.3, "density": 7900.0},
            "phase2": {"youngs_modulus": 150.0, "poisson": 0.3, "density": 790.0},
        },
        "optimizer": {"weight_fraction": 0.7, "kappa": 1.0,
                      "filter_radius_macro": 4.0, "filter_radius_micro": 0.45},
    }


def test_hex_run_from_config(tmp_path):
    cfg_path = tmp_path / "prism.yaml"
    cfg_path.write_text(yaml.safe_dump(prism_doc()), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
    vtk = open(os.path.join(out, "macro_density.vtk")).read()
    assert "DIMENSIONS 5 3 3" in vtk
    history = open(os.path.join(out, "history.csv")).read().strip().splitlines()
    final = history[-1].split(",")
    assert abs(float(final[4]) - 0.7) < 0.05  # weight fraction column


def test_hex_robust_evaluation_and_oracle_agree(rng):
    grid = StructuredGrid((3, 2, 2), (1.0, 1.0, 1.0))
    cell = StructuredGrid((3, 3, 3), (1 / 3, 1 / 3, 1 / 3))
    nx, ny, nz = 3, 2, 2
    nodes_per_plane = (nx + 1) * (ny + 1)
    fixed_nodes = [k * nodes_per_plane + j * (nx + 1) for k in range(nz + 1) for j in range(ny + 1)]
    fixed = np.array([[3 * n, 3 * n + 1, 3 * n + 2] for n in fixed_nodes]).ravel()
    f = np.zeros(grid.n_dofs)
    f[3 * nx + 1] = -1000.0
    from rcto.problem import MacroProblem

    prob = MacroProblem(grid=grid, cell=cell, fixed_dofs=fixed, force=f,
                        omega=2 * np.pi * 50.0, penalty=3.0)
    state = full_state(prob, micro=seed_cell(cell, 0.1, 1e-6))
    ev = BatchComplianceEvaluator(prob, state, MAT)
    names = ("e1", "e2", "nu", "rho1", "rho2")
    vals = np.column_stack([
        rng.normal(200e3, 5e3, 6), rng.normal(150e3, 4e3, 6), rng.normal(0.3, 0.003, 6),
        rng.normal(7.9e-9, 1e-10, 6), rng.normal(0.79e-9, 1e-11, 6),
    ])
    assert np.allclose(ev.compliance(names, vals), reference_compliance(prob, state, MAT, names, vals), rtol=1e-10)

    from rcto.uncertainty import ihpa_evaluate

    obj, cache = ihpa_evaluate(prob, state, MAT, hybrid_params(MAT), kappa=1.0)
    assert cache.fea_calls == 16 and obj.std > 0.0


def test_hex_cell_ball_seed_symmetry():
    cell = StructuredGrid((5, 5, 5), (0.2, 0.2, 0.2))
    x = seed_cell(cell, 0.05, 1e-6)
    field = (x.reshape(5, 5, 5, order="F") == 1e-6)
    assert field[2, 2, 2]
    assert np.array_equal(field, field[::-1, :, :])
    assert np.array_equal(field, field.transpose(1, 0, 2))
