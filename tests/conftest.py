import multiprocessing
import os

import numpy as np
import pytest

from cqsim.grids import GridAxis, PhaseGrid
from cqsim.models import polynomial_cq_model
from cqsim.state import gaussian_product_state

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    b = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    return b.conj().T @ b


def qubit_decoherence_model(lam=1.0, d0=1.0, d2=None, mass=1.0):
    """V_I = lam * q * sigma_z at (or above) the saturated trade-off."""
    if d2 is None:
        d2 = 0.25 / d0
    return polynomial_cq_model(
        mass=mass,
        potential_coeffs=[0.0],
        h_q=np.zeros((2, 2)),
        v_i_matrix=SIGMA_Z,
        v_i_profile=[0.0, lam],
        d2_coeffs=[d2],
        d0_coeffs=[d0],
    )


def free_diffusion_model(d2=0.5, mass=1.0):
    return polynomial_cq_model(mass=mass, potential_coeffs=[0.0], h_q=[[0.0]], d2_coeffs=[d2])


def overlap_rebin(dens, src, dst):
    """Conservative rebin of a 1-d density between cell-centered grids."""
    se = src.edges(src.axes[0].name)
    de = dst.edges(dst.axes[0].name)
    out = np.zeros(dst.axes[0].n)
    for j in range(src.axes[0].n):
        a, b = se[j], se[j + 1]
        lo = np.searchsorted(de, a, "right") - 1
        hi = np.searchsorted(de, b, "left") - 1
        for i in range(max(lo, 0), min(hi, out.size - 1) + 1):
            seg = min(b, de[i + 1]) - max(a, de[i])
            if seg > 0:
                out[i] += dens[j] * seg
    return out / (de[1] - de[0])


def in_child(fn, daemon=False):
    """fn() in a forked child process; returns its result or raises its exception."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def main():
        try:
            send.send((True, fn()))
        except Exception as exc:
            send.send((False, exc))

    proc = ctx.Process(target=main, daemon=daemon)
    proc.start()
    try:
        assert recv.poll(300), "child process sent no result"
        ok, value = recv.recv()
    finally:
        proc.join()
    if not ok:
        raise value
    return value


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def on_one_cpu(fn):
    """fn() in a forked child pinned to one CPU of this process's affinity mask."""
    cpu = min(os.sched_getaffinity(0))

    def pinned():
        os.sched_setaffinity(0, {cpu})  # the child process only
        return fn()

    return in_child(pinned)


def record_pids(monkeypatch, module, name, path):
    """Make ``module.name`` append the pid of each process that calls it to the file ``path``.

    Forked workers inherit the patch; returns a function that reads the pids back.
    """
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return lambda: [int(pid) for pid in path.read_text().split()] if path.exists() else []


@pytest.fixture
def small_grid():
    return PhaseGrid((GridAxis("q", -4.0, 4.0, 41), GridAxis("p", -4.0, 4.0, 41)))


@pytest.fixture
def gaussian_state(small_grid):
    return gaussian_product_state(small_grid, centers=(0.0, 0.0), sigmas=(0.7, 0.7))
