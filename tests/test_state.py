import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqsim import generator, grids, runner
from cqsim import state as state_module
from cqsim.cli import main
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.state import (
    HybridState,
    cell_min_eigenvalues,
    classical_marginal,
    coherence,
    gaussian_product_state,
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


def test_building_a_state_holds_one_cells_array():
    grid = PhaseGrid((GridAxis("q", -3.0, 3.0, 61), GridAxis("p", -3.0, 3.0, 61)))
    centers, sigmas = (0.2, -0.1), (0.8, 0.9)
    rho_q = np.full((8, 8), 1.0 / 8 + 0.0j)  # trace 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = gaussian_product_state(grid, centers, sigmas, rho_q=rho_q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the cells and a few grid-sized Gaussian factors and traces (a cells
    # array is 128 of those at d = 8): the normalization divides in place
    assert peak < state.cells.nbytes + 16 * grid.shape[0] * grid.shape[1] * 8, peak
    # the bits of the division into a new array
    weight = np.ones(grid.shape)
    for mesh, c, s in zip(grid.meshes(), centers, sigmas):
        weight = weight * np.exp(-0.5 * ((mesh - c) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    cells = weight[..., None, None] * rho_q
    want = cells / total_trace(HybridState(grid, cells))
    assert state.cells.tobytes() == want.tobytes()


WRITE_TABLE_CASES = {
    "headers": (["# a", "# b c", "x,y"], np.arange(12.0).reshape(4, 3) / 7.0),
    "no-header": ([], np.array([[1.5, -2.25], [3.0, 4.0]])),
    "empty-header-line": ([""], np.array([[1.0, 2.0]])),
    "zero-rows": (["# h"], np.empty((0, 3))),
    "one-column": (["# h"], np.array([[0.1], [0.2], [0.3]])),
    "one-dimensional": (["# h"], np.array([0.1, -0.2, 0.3])),
    "signed-zero": ([], np.array([[-0.0, 0.0], [0.0, -0.0]])),
    "non-finite": (["# h"], np.array([[np.inf, -np.inf, np.nan, -np.nan]])),
    "extreme-exponents": ([], np.array([[5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                                         1e-300, 1e300, 123456789012345680.0, 1e16, 1e-5]])),
    "integers": (["# h"], np.array([[1, -2, 3]])),
}


@pytest.mark.parametrize("case", list(WRITE_TABLE_CASES))
def test_write_table_writes_the_bytes_of_savetxt(tmp_path, monkeypatch, case):
    header_lines, table = WRITE_TABLE_CASES[case]
    want = io.StringIO()
    np.savetxt(want, table, fmt="%.17g", delimiter=",", header="\n".join(header_lines),
               comments="")
    stream = io.StringIO()
    state_module.write_table(stream, header_lines, table)
    assert stream.getvalue() == want.getvalue()
    # to a file name, and in strings of one row each
    monkeypatch.setattr(state_module, "TEXT_FLOATS", 1)
    path = tmp_path / "table.csv"
    state_module.write_table(path, header_lines, table)
    assert path.read_bytes() == want.getvalue().encode()
    state_module.write_table(str(path), header_lines, table)
    assert path.read_bytes() == want.getvalue().encode()


def _bits(pattern):
    """The float64 whose bits are the integer ``pattern``."""
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


def _steps(x, n):
    """``x`` moved ``n`` doubles up (n > 0) or down."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, np.inf if n > 0 else -np.inf))
    return x


def _largest_below_decade(k):
    """The largest double below 10^k, whose 17 digits may round up to 10^k."""
    x = float(f"1e{k}")
    return x if Fraction(x) < Fraction(10) ** k else _steps(x, -1)


# the oracle's value families: with a random sign, each NaN payload, +-0,
# subnormals, +-inf and the largest finite value among the bit patterns;
# then decades and their neighbours, decades' lower neighbours whose
# 17-digit rounding carries, exact ties (1e15 + 0.25 has 18 digits, the last
# a 5), 17-digit integers and the %g switch points around 1e-4 and 1e17
MAGNITUDES = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),
    st.integers(0, 2**52).map(_bits),  # zero, subnormals, the smallest normal
    st.sampled_from([0.0, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.builds(lambda k, n: _steps(float(f"1e{k}"), n), st.integers(-330, 308), st.integers(-1, 1)),
    st.integers(-323, 308).map(_largest_below_decade),
    st.builds(lambda m, f: m + f, st.integers(10**15, 2**51 - 1), st.sampled_from([0.25, 0.5, 0.75])),
    st.integers(10**16, 10**17).map(float),
    st.builds(_steps, st.sampled_from([1e-4, 1e-5, 1e16, 1e17]), st.integers(-3, 3)),
)
VALUES = st.builds(lambda x, negative: -x if negative else x, MAGNITUDES, st.booleans())


def _savetxt(table):
    want = io.StringIO()
    np.savetxt(want, table, fmt="%.17g", delimiter=",")
    return want.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 7), st.sampled_from([1, 5, 4096]), st.data())
def test_write_table_is_savetxt_for_any_float64(rows, columns, block, data):
    # CPython's %.17g is the oracle; the bytes depend on no block size
    values = data.draw(st.lists(VALUES, min_size=rows * columns, max_size=rows * columns))
    table = np.array(values).reshape(rows, columns)
    stream = io.StringIO()
    saved = state_module.TEXT_FLOATS
    state_module.TEXT_FLOATS = block
    try:
        state_module.write_table(stream, [], table)
    finally:
        state_module.TEXT_FLOATS = saved
    assert stream.getvalue() == _savetxt(table)


def test_write_table_is_savetxt_on_a_seeded_sweep():
    # 2e5 bit patterns, every decade with two neighbours each side, and
    # every power of 2: 17-digit rounding at each exponent
    rng = np.random.default_rng(17)
    decades = [_steps(float(f"1e{k}"), n) for k in range(-330, 309) for n in (-2, -1, 0, 1, 2)]
    values = np.concatenate([
        rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64),
        decades, np.ldexp(1.0, np.arange(-1074, 1024)),
    ])
    table = np.resize(values, (len(values) // 9, 9))
    stream = io.StringIO()
    state_module.write_table(stream, [], table)
    assert stream.getvalue() == _savetxt(table)


FINITE_VALUES = VALUES.filter(np.isfinite)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.data())
def test_written_dumps_read_back_bit_for_bit(d, data):
    # "reads back as the same float64": signed zeros and subnormals too
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 3), GridAxis("p", -0.5, 2.0, 4)))
    n = 2 * 12 * d * d
    values = np.array(data.draw(st.lists(FINITE_VALUES, min_size=n, max_size=n)))
    state = HybridState(grid, values.view(complex).reshape(grid.shape + (d, d)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.txt")
        save_state(state, path)
        loaded = load_state(path)
        with open(path) as fh:
            parsed = state_from_text(fh.read())
    assert loaded.grid == parsed.grid == grid
    assert loaded.cells.tobytes() == parsed.cells.tobytes() == state.cells.tobytes()


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


@pytest.mark.parametrize("shape", [(7, 5), (7,)])
def test_cell_min_eigenvalues_are_the_whole_grid_expression_in_any_slabs(shape, monkeypatch):
    rng = np.random.default_rng(9)
    grid = PhaseGrid(tuple(GridAxis(name, -1.0, 1.0, n) for name, n in zip("qp", shape)))
    cells = rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4))
    state = HybridState(grid, cells)
    herm = 0.5 * (cells + np.conj(np.swapaxes(cells, -1, -2)))
    want = np.linalg.eigvalsh(herm)[..., 0].tobytes()
    # 2 and 3 rows leave a last slab of one row; 7 rows are the whole grid
    for rows in (1, 2, 3, 7):
        monkeypatch.setattr(grids, "SLAB_BYTES", rows * cells[0].nbytes)
        assert cell_min_eigenvalues(state).tobytes() == want


def test_exactly_hermitian_cells_are_diagonalized_as_they_are():
    # a record's cells are exactly Hermitian, so each is its own Hermitian
    # part: hermitian=True skips that pass and keeps every bit
    x = np.random.default_rng(12).normal(size=(7, 5, 4, 4))
    cells = generator._hermitian_cells(x)
    low, want = np.empty((7, 5)), np.empty((7, 5))
    assert min_cell_eigenvalue(cells, out=low, hermitian=True) == min_cell_eigenvalue(cells, out=want)
    assert low.tobytes() == want.tobytes()


def test_cell_min_eigenvalues_hold_a_few_slabs(monkeypatch):
    rng = np.random.default_rng(10)
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, 60), GridAxis("p", -1.0, 1.0, 41)))
    cells = rng.normal(size=grid.shape + (8, 8)) + 1j * rng.normal(size=grid.shape + (8, 8))
    state = HybridState(grid, cells)
    slab_bytes = 3 * cells[0].nbytes
    monkeypatch.setattr(grids, "SLAB_BYTES", slab_bytes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        low = cell_min_eigenvalues(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the result and a few slabs of temporaries (Hermitian part, its
    # terms, eigenvalues); the whole-grid expression held grid-sized ones
    assert peak < low.nbytes + 6 * slab_bytes
    assert cells.nbytes > 12 * slab_bytes


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


# (grid points per axis, hilbert_dim, BLOCK_FLOATS and JOB_FLOATS or None for
# the defaults, jobs; 0 when the dump is written in this process)
BLOCK_CASES = {"7-rows": (9, 2, 70, 70, 12), "one-block": (9, 2, 810, None, 0),
               "default": (70, 8, None, None, 10)}
WRITERS = [(case, where) for where in ("this-process", "one-cpu", "daemon") for case in BLOCK_CASES]


def random_state(n, d, seed=5):
    grid = PhaseGrid((GridAxis("q", -1.0, 1.0, n), GridAxis("p", -2.0, 2.0, n)))
    rng = np.random.default_rng(seed)
    shape = grid.shape + (d, d)
    return HybridState(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.parametrize(
    "case, where", WRITERS,
    ids=[case if where == "this-process" else f"{case}-{where}" for case, where in WRITERS],
)
def test_state_written_in_blocks_is_the_whole_table(tmp_path, monkeypatch, case, where):
    n, d, block, job, jobs = BLOCK_CASES[case]
    state = random_state(n, d)
    grid, cells = state.grid, state.cells
    if block:
        monkeypatch.setattr(state_module, "BLOCK_FLOATS", block)
    if job:
        monkeypatch.setattr(state_module, "JOB_FLOATS", job)
    width = 2 + 2 * d * d
    rows = state_module.JOB_FLOATS // width
    # a dump of one block is written in this process; several jobs end in a shorter one
    if jobs:
        assert n * n * width > state_module.BLOCK_FLOATS
        assert -(-n * n // rows) == jobs and n * n % rows
    else:
        assert n * n * width <= state_module.BLOCK_FLOATS
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
    # a one-block dump is written straight to its file; the jobs of a larger
    # one are formatted in forked workers, or in the writer when it has one
    # CPU or is daemonic
    if not jobs:
        assert pids() == []
    elif where == "this-process" and len(os.sched_getaffinity(0)) > 1:
        assert len(pids()) == jobs and writer not in pids()
    else:
        assert pids() == [writer] * jobs


def test_pooled_dump_holds_a_few_jobs_text(tmp_path):
    # 70^2 cells at d = 8 are 637000 floats, more than a block: pooled jobs
    state = random_state(70, 8)
    path = tmp_path / "state.txt"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_state(state, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    jobs = -(-70 * 70 // (state_module.JOB_FLOATS // 130))
    job_text = path.stat().st_size / jobs  # 1.3 MB
    # the jobs that came back and wait to be written, each as text and in
    # its pickle, and one being encoded to the file: 4.2-5.4 MB were
    # measured, where blocks of BLOCK_FLOATS floats took 24.5-26.1 MB
    assert jobs == 10 and peak < 8 * job_text, (peak, job_text)


@pytest.mark.parametrize("job", [130, 911, 2000])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_dump_bytes_do_not_depend_on_jobs_or_workers(tmp_path, monkeypatch, job, workers):
    state = random_state(13, 3, seed=job)
    path, want = tmp_path / "pooled.txt", tmp_path / "in_process.txt"
    save_state(state, want)  # 169 rows of 20 floats: one block
    monkeypatch.setattr(state_module, "BLOCK_FLOATS", 0)
    monkeypatch.setattr(state_module, "JOB_FLOATS", job)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    pids = record_pids(monkeypatch, state_module, "_block_text", tmp_path / "pids")
    save_state(state, path)
    assert path.read_bytes() == want.read_bytes()
    jobs = -(-169 // max(1, job // 20))
    # a worker may take several jobs before another starts
    assert len(pids()) == jobs and len(set(pids())) <= min(workers, jobs)
    assert jobs > 1 and (set(pids()) == {os.getpid()}) == (workers == 1)


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


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_forked_work_loads_no_pool_module(tmp_path):
    # the dump, compare and the records fork without multiprocessing
    script = f"""
import os, sys
import numpy as np
from cqsim import generator, runner, state
from cqsim.cli import main
from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import polynomial_cq_model

forks = []
fork = os.fork
def counted():
    forks.append(1)
    return fork()
os.fork = counted
for module in (generator, runner, state):
    module.BLOCK_FLOATS = 0
state.JOB_FLOATS = 400  # five jobs of the 21^2-row dump
grid = PhaseGrid((GridAxis("q", -5.0, 5.0, 21), GridAxis("p", -5.0, 5.0, 21)))
model = polynomial_cq_model(mass=1.0, potential_coeffs=[0.0], h_q=[[0.0]], d2_coeffs=[0.1])
final, diags = generator.evolve(model, state.gaussian_product_state(grid, (0, 0), (0.6, 0.6)),
                                1e-3, 2, stride=1)
assert len(forks) == 2, forks  # records 0 and 1
path = {str(tmp_path / "a.txt")!r}
state.save_state(final, path)
assert main(["compare", path, path]) == 0
assert len(forks) == 2 + 2 + 2, forks  # two dump workers, then compare's two
pooled = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
assert not pooled, pooled
"""
    src = os.path.dirname(os.path.dirname(state_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == 0.0


def test_grid_invariants():
    with pytest.raises(ValueError, match="at least"):
        GridAxis("q", 0.0, 1.0, 2)
    with pytest.raises(ValueError, match="hi > lo"):
        GridAxis("q", 1.0, 1.0, 5)
