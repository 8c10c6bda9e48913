import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cqsim import runner
from cqsim import state as state_module
from cqsim.cli import main
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.state import (
    HybridState,
    cell_min_eigenvalues,
    classical_marginal,
    coherence,
    gaussian_product_state,
    hermiticity_defect,
    load_state,
    min_cell_eigenvalue,
    purity_of_marginal,
    quantum_marginal,
    save_state,
    state_from_text,
    total_trace,
)

from conftest import PLUS, in_child, on_one_cpu, record_pids


def test_normalized_product_state_has_unit_trace(gaussian_state):
    assert total_trace(gaussian_state) == pytest.approx(1.0, abs=1e-12)


def test_total_trace_is_linear(gaussian_state):
    doubled = HybridState(gaussian_state.grid, 2.0 * gaussian_state.cells)
    assert total_trace(doubled) == pytest.approx(2.0, abs=1e-12)


def test_zero_state_trace(small_grid):
    zero = HybridState(small_grid, np.zeros(small_grid.shape + (1, 1), dtype=complex))
    assert total_trace(zero) == 0.0


def test_classical_marginal_of_pure_projector(small_grid):
    rho_q = np.outer(PLUS, PLUS.conj())
    state = gaussian_product_state(small_grid, (0.0, 0.0), (0.7, 0.7), rho_q=rho_q)
    dens = classical_marginal(state)
    # trace of a pure projector is 1, so the marginal is the Gaussian weight
    weight = state.cells[..., 0, 0].real + state.cells[..., 1, 1].real
    assert np.allclose(dens, weight)
    assert dens.sum() * state.cell_volume == pytest.approx(total_trace(state), rel=1e-12)


def test_two_branch_point_masses(small_grid):
    d = 2
    cells = np.zeros(small_grid.shape + (d, d), dtype=complex)
    ia, ib = 5, 30
    cells[ia, 3, 0, 0] = 0.6 / small_grid.cell_volume
    cells[ib, 8, 1, 1] = 0.4 / small_grid.cell_volume
    state = HybridState(small_grid, cells)
    dens = classical_marginal(state)
    assert dens[ia, 3] * small_grid.cell_volume == pytest.approx(0.6)
    assert dens[ib, 8] * small_grid.cell_volume == pytest.approx(0.4)
    assert total_trace(state) == pytest.approx(1.0)


def test_quantum_marginal_hermitian_and_consistent(small_grid):
    rng = np.random.default_rng(3)
    cells = rng.normal(size=small_grid.shape + (3, 3)) + 1j * rng.normal(
        size=small_grid.shape + (3, 3)
    )
    cells = cells + np.conj(np.swapaxes(cells, -1, -2))
    state = HybridState(small_grid, cells)
    rho = quantum_marginal(state)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(total_trace(state), rel=1e-12)


def test_gaussian_centred_on_its_mean(small_grid):
    state = gaussian_product_state(small_grid, (0.5, -0.25), (0.6, 0.6))
    q, p = small_grid.meshes()
    dens = classical_marginal(state) * state.cell_volume
    assert (q * dens).sum() == pytest.approx(0.5, abs=1e-6)
    assert (p * dens).sum() == pytest.approx(-0.25, abs=1e-6)


def test_purity_of_pure_product_state(small_grid):
    state = gaussian_product_state(small_grid, (0.0, 0.0), (0.7, 0.7), rho_q=np.outer(PLUS, PLUS))
    assert purity_of_marginal(state) == pytest.approx(1.0, abs=1e-12)


def test_coherence_field(small_grid):
    state = gaussian_product_state(small_grid, (0.0, 0.0), (0.7, 0.7), rho_q=np.outer(PLUS, PLUS))
    coh = coherence(state, 0, 1)
    assert np.all(coh >= 0)
    assert coh.max() == pytest.approx(0.5 * classical_marginal(state).max(), rel=1e-12)


def test_truncated_gaussian_has_unit_trace(small_grid):
    # centred on the grid's last q point, so about half of the Gaussian is cut off
    q_hi = small_grid.axes[0].hi
    state = gaussian_product_state(small_grid, (q_hi, 0.0), (0.7, 0.7))
    dens = classical_marginal(state)
    assert np.unravel_index(np.argmax(dens), dens.shape)[0] == small_grid.axes[0].n - 1
    assert total_trace(state) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "rho_q",
    [[[np.nan]], [[np.inf]], [[-1.0]], [[0.0]], [[0.5, np.nan], [np.nan, 0.5]]],
    ids=["nan", "inf", "negative_trace", "zero_trace", "nan_coherence"],
)
def test_gaussian_needs_a_finite_rho_q_with_positive_trace(small_grid, rho_q):
    with pytest.raises(ValueError, match=r"^rho_q must be finite with a trace > 0"):
        gaussian_product_state(small_grid, (0.0, 0.0), (0.7, 0.7), rho_q=rho_q)


def test_gaussian_off_the_grid_refused(small_grid):
    # every weight underflows to 0 this far from the grid
    with pytest.raises(ValueError, match="total trace 0"):
        gaussian_product_state(small_grid, (1e3, 0.0), (0.7, 0.7))


@pytest.mark.parametrize(
    "centers, sigmas, name",
    [
        ((0.0, 0.0), (0.0, 0.7), "sigmas"),
        ((0.0, 0.0), (0.7, np.nan), "sigmas"),
        ((0.0, 0.0), (-0.7, 0.7), "sigmas"),
        ((0.0, 0.0), (0.7, np.inf), "sigmas"),
        ((0.0, 0.0), (0.7,), "sigmas"),
        ((0.0, 0.0), (0.7, 0.7, 0.7), "sigmas"),
        ((np.nan, 0.0), (0.7, 0.7), "centers"),
        ((0.0, -np.inf), (0.7, 0.7), "centers"),
        ((0.0,), (0.7, 0.7), "centers"),
    ],
    ids=["zero_width", "nan_width", "negative_width", "infinite_width", "short_sigmas",
         "long_sigmas", "nan_center", "infinite_center", "short_centers"],
)
def test_gaussian_needs_one_finite_center_and_width_per_axis(small_grid, centers, sigmas, name):
    what = "finite number > 0" if name == "sigmas" else "finite number"
    with pytest.raises(ValueError, match=rf"^{name} must be one {what} per grid axis"):
        gaussian_product_state(small_grid, centers, sigmas)


def test_hermiticity_validation(small_grid):
    cells = np.zeros(small_grid.shape + (2, 2), dtype=complex)
    cells[0, 0, 0, 1] = 1.0  # not mirrored
    state = HybridState(small_grid, cells)
    assert hermiticity_defect(state) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        state.validate()


def test_min_cell_eigenvalue(small_grid):
    cells = np.zeros(small_grid.shape + (2, 2), dtype=complex)
    cells[..., 0, 0] = 1.0
    cells[..., 1, 1] = -0.25
    assert min_cell_eigenvalue(HybridState(small_grid, cells)) == pytest.approx(-0.25)


def test_cell_min_eigenvalues_are_each_cells_lowest(small_grid):
    rng = np.random.default_rng(5)
    cells = rng.normal(size=small_grid.shape + (3, 3)) + 1j * rng.normal(size=small_grid.shape + (3, 3))
    state = HybridState(small_grid, cells)
    low = cell_min_eigenvalues(state)
    assert low.shape == small_grid.shape
    herm = 0.5 * (cells + np.conj(np.swapaxes(cells, -1, -2)))
    for index in np.ndindex(small_grid.shape):
        assert low[index] == np.linalg.eigvalsh(herm[index])[0]
    assert min_cell_eigenvalue(state) == low.min()


def test_serialization_roundtrip(tmp_path):
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 5), GridAxis("p", -2.0, 2.0, 7)))
    rng = np.random.default_rng(11)
    cells = rng.normal(size=grid.shape + (2, 2)) + 1j * rng.normal(size=grid.shape + (2, 2))
    cells = cells + np.conj(np.swapaxes(cells, -1, -2))
    state = HybridState(grid, cells)
    path = tmp_path / "state.txt"
    save_state(state, path, scenario={"run": "test"})
    loaded = load_state(path)
    assert loaded.grid == state.grid
    assert np.abs(loaded.cells - state.cells).max() == 0.0  # 17 digits roundtrips exactly


def saved_text(tmp_path, state, scenario=None):
    """The dump `save_state` writes of ``state``, read back as text."""
    path = tmp_path / "saved_state.txt"
    save_state(state, path, scenario=scenario)
    return path.read_text()


def test_serialization_single_axis_grid(tmp_path):
    grid = PhaseGrid((GridAxis("z", -1.0, 1.0, 9),))
    cells = np.zeros(grid.shape + (2, 2), dtype=complex)
    cells[4, 0, 0] = 1.0 / grid.cell_volume
    text = saved_text(tmp_path, HybridState(grid, cells))
    loaded = state_from_text(text)
    assert loaded.grid.ndim == 1
    assert total_trace(loaded) == pytest.approx(1.0)


# (grid points per axis, hilbert_dim, BLOCK_FLOATS or None for the default, blocks)
BLOCK_CASES = {"7-rows": (9, 2, 70, 12), "one-block": (9, 2, 810, 1), "default": (70, 8, None, 2)}
WRITERS = [(case, where) for where in ("this-process", "one-cpu", "daemon") for case in BLOCK_CASES]


@pytest.mark.parametrize(
    "case, where", WRITERS,
    ids=[case if where == "this-process" else f"{case}-{where}" for case, where in WRITERS],
)
def test_state_written_in_blocks_is_the_whole_table(tmp_path, monkeypatch, case, where):
    n, d, block, blocks = BLOCK_CASES[case]
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, n), GridAxis("p", -2.0, 2.0, n)))
    rng = np.random.default_rng(5)
    shape = grid.shape + (d, d)
    cells = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state = HybridState(grid, cells)
    if block:
        monkeypatch.setattr(state_module, "BLOCK_FLOATS", block)
    rows = state_module.BLOCK_FLOATS // (2 + 2 * d * d)
    # several blocks end in a shorter one
    assert -(-n * n // rows) == blocks and (blocks == 1 or n * n % rows)
    pids = record_pids(monkeypatch, state_module, "_block_text", tmp_path / "pids")
    scenario = {"run": "evolve"}
    path = tmp_path / "state.txt"

    def write():
        save_state(state, path, scenario=scenario)
        return os.getpid()

    writer = {
        "this-process": write,
        "one-cpu": lambda: on_one_cpu(write),
        "daemon": lambda: in_child(write, daemon=True),
    }[where]()
    text = path.read_text()
    coords = [m.reshape(-1) for m in grid.meshes()]
    whole = io.StringIO()
    np.savetxt(
        whole, np.column_stack(coords + [cells.reshape(n * n, d * d).view(float)]),
        fmt="%.17g", delimiter=",", header="\n".join(text.splitlines()[:3]), comments="",
    )
    assert path.read_bytes() == whole.getvalue().encode()
    # a one-block dump is written straight to its file; the blocks of a larger
    # one are formatted in forked workers, or in the writer when it has one
    # CPU or is daemonic
    if blocks == 1:
        assert pids() == []
    elif where == "this-process" and len(os.sched_getaffinity(0)) > 1:
        assert len(pids()) == blocks and writer not in pids()
    else:
        assert pids() == [writer] * blocks


def test_load_state_holds_one_table(tmp_path):
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 101), GridAxis("p", -1.0, 1.0, 101)))
    state = gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.5), rho_q=np.full((4, 4), 0.25))
    path = tmp_path / "state.txt"
    save_state(state, path)
    table_bytes = grid.shape[0] * grid.shape[1] * (2 + 2 * 16) * 8
    assert path.stat().st_size > table_bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_state(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert loaded.cells.tobytes() == state.cells.tobytes()
    # neither the text nor its lines are held beside the table
    assert peak < 1.5 * table_bytes


def reference_state_text(state, scenario=None):
    """The per-entry "{:.17g}" writer that `_write_state`'s blocks replaced: the format
    reference."""
    buf = io.StringIO()
    meta = {
        "axes": [
            {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n} for ax in state.grid.axes
        ],
        "boundary": "truncate",
        "hilbert_dim": state.hilbert_dim,
    }
    buf.write("# cqsim-state " + json.dumps(meta, sort_keys=True) + "\n")
    if scenario is not None:
        buf.write("# scenario " + json.dumps(scenario, sort_keys=True) + "\n")
    d = state.hilbert_dim
    names = [ax.name for ax in state.grid.axes]
    cols = names + [f"{part}_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
    buf.write("# columns: " + ",".join(cols) + "\n")
    meshes = state.grid.meshes()
    flat_coords = [m.reshape(-1) for m in meshes]
    flat_cells = state.cells.reshape(-1, d, d)
    for idx in range(flat_cells.shape[0]):
        row = ["{:.17g}".format(c[idx]) for c in flat_coords]
        for i in range(d):
            for j in range(d):
                row.append("{:.17g}".format(flat_cells[idx, i, j].real))
                row.append("{:.17g}".format(flat_cells[idx, i, j].imag))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


# signed zero, the smallest subnormal, the largest finite float, a decimal
# that has no exact binary form, integer-valued floats, and generic values
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0, -2.0, 1e16, 0.0,
               -1.2345678901234567e-7, 2.0 / 3.0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "axes",
    [
        (GridAxis("z", -1.0, 1.0, 7),),
        (GridAxis("q", -1.5, 0.25, 3), GridAxis("p", -2.0, 2.0, 4)),
    ],
    ids=["1-axis", "2-axis"],
)
def test_state_text_matches_per_entry_reference(tmp_path, axes, d):
    grid = PhaseGrid(axes)
    n = int(np.prod(grid.shape)) * d * d
    values = np.resize(EDGE_VALUES, 2 * n)
    cells = (values[:n] + 1j * 0.0).reshape(grid.shape + (d, d))
    cells.imag = np.roll(values, 3)[:n].reshape(grid.shape + (d, d))
    state = HybridState(grid, cells)
    scenario = {"run": "evolve", "numerics": {"dt": 0.1}}
    for prov in (None, scenario):
        text = saved_text(tmp_path, state, scenario=prov)
        assert text == reference_state_text(state, scenario=prov)
    loaded = state_from_text(text)
    assert loaded.grid == grid
    # bit for bit, so -0.0 keeps its sign
    assert loaded.cells.tobytes() == state.cells.tobytes()


def _edit_header(text, **changes):
    """``text`` with its cqsim-state header keys replaced, or dropped where None."""
    head, rest = text.split("\n", 1)
    meta = dict(json.loads(head[len("# cqsim-state "):]), **changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    return "# cqsim-state " + json.dumps(meta) + "\n" + rest


def _edit_rows(text, edit):
    """``text`` with ``edit`` applied to its list of data rows, each a list of fields."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = [line.split(",") for line in lines[start:]]
    edit(rows)
    return "\n".join(lines[:start] + [",".join(row) for row in rows]) + "\n"


def _set_entry(row, col, value):
    def edit(rows):
        rows[row - 1][col] = value

    return lambda text: _edit_rows(text, edit)


def _swap(rows):
    rows[2], rows[3] = rows[3], rows[2]


@pytest.mark.parametrize(
    "edit, cause",
    [
        (lambda t: _edit_header(t, axes=None), "lacks key 'axes'"),
        (lambda t: _edit_header(t, boundary=None), "lacks key 'boundary'"),
        (lambda t: _edit_header(t, boundary="periodic"),
         "state header boundary must be 'truncate', got 'periodic'"),
        (lambda t: _edit_header(t, hilbert_dim=None), "lacks key 'hilbert_dim'"),
        (lambda t: _edit_header(t, hilbert_dim=2), "4 columns, expected 10"),
        (lambda t: _edit_header(t, hilbert_dim=1.0), "malformed state header: 'float'"),
        (lambda t: _edit_header(t, axes="qp"), "malformed state header: string indices"),
        (lambda t: "".join(t.splitlines(keepends=True)[:2]), "row count 0 "),
        (lambda t: _edit_header(t, axes=[dict(name="q", lo=-1.0, hi=1.0, n=9.5),
                                         dict(name="p", lo=-1.0, hi=1.0, n=9)]),
         "axis 'q' needs an integer point count, got 9.5"),
        (lambda t: _edit_header(t, hilbert_dim=-1), "hilbert_dim must be positive, got -1"),
        # data rows start on line 3, after the header and column lines
        (_set_entry(5, 2, "nan"), "state row 5 (line 7), column re_00: nan is not a finite number"),
        (_set_entry(6, 3, "inf"), "state row 6 (line 8), column im_00: inf is not a finite number"),
        (lambda t: _edit_rows(t, _swap),
         "state row 3 (line 5), column p: -0.25 is not the grid point -0.5"),
        (_set_entry(10, 0, "0.123"),
         "state row 10 (line 12), column q: 0.123 is not the grid point -0.75"),
    ],
    ids=["no-axes", "no-boundary", "boundary-periodic", "no-hilbert-dim", "hilbert-dim-mismatch",
         "hilbert-dim-float", "axes-not-a-list", "header-only", "axis-n-float",
         "hilbert-dim-negative", "nan-entry", "inf-entry", "rows-swapped", "wrong-coordinate"],
)
def test_malformed_state_file_names_the_cause(tmp_path, capsys, edit, cause):
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 9), GridAxis("p", -1.0, 1.0, 9)))
    text = edit(saved_text(tmp_path, gaussian_product_state(grid, (0.0, 0.0), (0.5, 0.5))))
    with pytest.raises(ValueError, match=re.escape(cause)):
        state_from_text(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(cause)):
        load_state(path)
    assert main(["compare", str(path), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert "Traceback" not in err


# -- compare in forked workers: the same values, refusals and exit codes --------


def _cli(args):
    """(exit code, stdout, stderr) of the command line ``args``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _dump(tmp_path, name, q_lo=-1.0, p0=0.0, edit=None):
    """The path of a 9 x 9 state dump, optionally passed through ``edit``."""
    grid = PhaseGrid((GridAxis("q", q_lo, -q_lo, 9), GridAxis("p", -1.0, 1.0, 9)))
    text = saved_text(tmp_path, gaussian_product_state(grid, (0.0, p0), (0.5, 0.5)))
    path = tmp_path / name
    path.write_text(edit(text) if edit else text)
    return path


# the second dump of each pair: (its path, exit code, start of stderr)
COMPARE_CASES = {
    "distance": (lambda tmp: _dump(tmp, "b", p0=0.3), 0, ""),
    "nan-entry": (lambda tmp: _dump(tmp, "b", edit=_set_entry(5, 2, "nan")), 1,
                  "error: state row 5 (line 7), column re_00: nan is not a finite number\n"),
    "rows-swapped": (lambda tmp: _dump(tmp, "b", edit=lambda t: _edit_rows(t, _swap)), 1,
                     "error: state row 3 (line 5), column p: -0.25 is not the grid point -0.5\n"),
    "missing-file": (lambda tmp: tmp / "missing.txt", 2, "error: [Errno 2] No such file"),
    "grids-differ": (lambda tmp: _dump(tmp, "b", q_lo=-2.0), 1, "error: grids differ: "),
}


@pytest.mark.parametrize("where", ["pooled", "daemon"])
@pytest.mark.parametrize("metric", ["l1", "linf"])
@pytest.mark.parametrize("case", sorted(COMPARE_CASES))
def test_pooled_compare_matches_in_process(tmp_path, monkeypatch, case, metric, where):
    make_b, code, message = COMPARE_CASES[case]
    a, b = _dump(tmp_path, "a"), make_b(tmp_path)
    args = ["compare", str(a), str(b), "--metric", metric]
    assert state_module.dump_floats(a) + state_module.dump_floats(b) <= runner.BLOCK_FLOATS
    here = _cli(args)  # small dumps: parsed in this process
    assert here[0] == code and here[2].startswith(message)
    if case == "distance":
        assert float(here[1]) > 0.0
    if case == "grids-differ":
        grids = [load_state(path).grid for path in (a, b)]
        assert here[2] == f"error: grids differ: {grids[0]} vs {grids[1]}\n"
    if case == "missing-file":
        assert str(b) in here[2]

    # any dump now holds more than one block: the dumps are parsed in two
    # forked workers, or in this process when it is daemonic
    monkeypatch.setattr(runner, "BLOCK_FLOATS", 0)
    pids = record_pids(monkeypatch, runner, "_grid_and_marginal", tmp_path / "pids")
    if where == "pooled":
        assert _cli(args) == here
        if len(os.sched_getaffinity(0)) > 1:
            assert len(pids()) == 2 and os.getpid() not in pids()
    else:
        assert in_child(lambda: _cli(args), daemon=True) == here
        assert len(set(pids())) == 1 and os.getpid() not in pids()


def test_small_work_starts_no_pool(tmp_path):
    # a fresh interpreter, since this one has imported multiprocessing
    script = f"""
import sys
import numpy as np
from cqsim.cli import main
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.state import BLOCK_FLOATS, dump_floats, gaussian_product_state, save_state

# 121^2 cells at d = 2, the size of grid_long's dump: one block
grid = PhaseGrid((GridAxis("q", -5.0, 5.0, 121), GridAxis("p", -4.0, 4.0, 121)))
paths = [{str(tmp_path / "a.txt")!r}, {str(tmp_path / "b.txt")!r}]
for path, p0 in zip(paths, (0.0, 0.1)):
    save_state(gaussian_product_state(grid, (0.0, p0), (0.6, 0.6), rho_q=np.eye(2)), path)
assert dump_floats(paths[0]) == 146410 and 2 * 146410 <= BLOCK_FLOATS
assert main(["compare", *paths]) == 0
pooled = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
assert not pooled, pooled
"""
    src = os.path.dirname(os.path.dirname(state_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0.0


def test_grid_invariants():
    with pytest.raises(ValueError, match="at least"):
        GridAxis("q", 0.0, 1.0, 2)
    with pytest.raises(ValueError, match="hi > lo"):
        GridAxis("q", 1.0, 1.0, 5)
