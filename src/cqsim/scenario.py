"""Declarative run configurations: parsing, validation, model building.

A scenario is a YAML document with nested sections: a ``run`` type and the
sections that run type reads, listed in `_SCHEMA`:

* evolve:       model, grid, initial, numerics, output
* unravel:      model, grid, initial, numerics
* sample_paths: model, grid (optional), initial, numerics
* zerodim:      model, numerics
* cp_check:     model

`_SCHEMA` also names each run type's numerics keys with their defaults (or
marks them required), and `_NUMERIC_BOUNDS` what each value must satisfy,
so a scenario is rejected here, before any run starts, for every numerics
reason.  Parsing is strict: duplicate keys, unknown keys (including a
section or key another run type reads), missing keys, type mismatches and
out-of-range values are all reported with the offending key and line
number.  Every number of the model, grid and initial sections is finite
(an infinite mass excepted), and the initial quantum data must be a state
of the model's levels (`_fit_initial`).  Matrices are nested lists of
reals; a parallel ``*_im`` key supplies an imaginary part when needed.
Scalar q- or z-dependent coefficients are polynomial coefficient lists,
low order first.

The resolved scenario (the given values, defaults filled in) is embedded
verbatim in every output artifact for provenance; the runner reads nothing
else.  The parser derives no step: the steps a run takes from ``t_final``
and ``dt`` are decided by the runner (`runner._plan`), for sample_paths as
for evolve and unravel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from .generator import TRACE_DRIFT_ABORT
from .grids import GridAxis, PhaseGrid
from .models import ToyParams, constant_measurement_model, polynomial_cq_model
from .psd import CouplingTriple, is_psd, require_hermitian
from .zerodim import PERTURBATIVE_ORDER_CAP

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "parse_scenario_file", "RUN_TYPES"]

RUN_TYPES = ("evolve", "unravel", "sample_paths", "zerodim", "cp_check")


class ScenarioError(ValueError):
    """Parse or validation failure, with key/line context in the message."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class _LocatedDict(dict):
    """Mapping that remembers the source line of each key."""

    def __init__(self):
        super().__init__()
        self.key_lines = {}


class _Loader(yaml.SafeLoader):
    pass


def _construct_mapping(loader, node, deep=False):
    mapping = _LocatedDict()
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        line = key_node.start_mark.line + 1
        if key in mapping:
            raise ScenarioError(f"duplicate key {key!r} at line {line}")
        mapping[key] = loader.construct_object(value_node, deep=deep)
        mapping.key_lines[key] = line
    return mapping


_Loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping)


def _load_yaml(text):
    try:
        doc = yaml.load(text, Loader=_Loader)
    except ScenarioError:
        raise
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a mapping of sections")
    return doc


def _line_of(block, key):
    if isinstance(block, _LocatedDict) and key in block.key_lines:
        return f" (line {block.key_lines[key]})"
    return ""


class _Section:
    """Typed reader over one mapping block, accumulating precise errors."""

    def __init__(self, name, data, problems, finite=True):
        self.name = name
        self.finite = finite
        self.data = data if data is not None else _LocatedDict()
        self.problems = problems
        self.seen = set()
        if not isinstance(self.data, dict):
            problems.append(f"section {name!r} must be a mapping")
            self.data = _LocatedDict()

    def _fetch(self, key, required, default):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.problems.append(f"missing required key {key!r} in section {self.name!r}")
            return default
        return self.data[key]

    def _floats(self, key, convert, default, inf=False):
        """Convert a number, list or matrix; in a ``finite`` section every
        entry must be finite (with ``inf``, at least not nan)."""
        try:
            val = convert()
        except OverflowError:
            self.problems.append(
                f"key {key!r} in section {self.name!r} is too large for a float"
                f"{_line_of(self.data, key)}"
            )
            return default
        bad = np.ravel(np.isnan(val) if inf else ~np.isfinite(val))
        if self.finite and bad.any():
            must = "not be nan" if inf else "be finite"
            self.problems.append(
                f"key {key!r} in section {self.name!r} must {must}, "
                f"got {float(np.ravel(val)[bad][0])!r}{_line_of(self.data, key)}"
            )
            return default
        return val

    def number(self, key, required=False, default=None, inf=False):
        val = self._fetch(key, required, default)
        if val is default and key not in self.data:
            return default
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.problems.append(
                f"key {key!r} in section {self.name!r} must be a number, got "
                f"{type(val).__name__}{_line_of(self.data, key)}"
            )
            return default
        return self._floats(key, lambda: float(val), default, inf)

    def integer(self, key, required=False, default=None):
        val = self._fetch(key, required, default)
        if val is default and key not in self.data:
            return default
        if isinstance(val, bool) or not isinstance(val, int):
            self.problems.append(
                f"key {key!r} in section {self.name!r} must be an integer"
                f"{_line_of(self.data, key)}"
            )
            return default
        return int(val)

    def string(self, key, required=False, default=None, choices=None):
        val = self._fetch(key, required, default)
        if val is default and key not in self.data:
            return default
        if not isinstance(val, str):
            self.problems.append(
                f"key {key!r} in section {self.name!r} must be a string{_line_of(self.data, key)}"
            )
            return default
        if choices and val not in choices:
            self.problems.append(
                f"key {key!r} in section {self.name!r} must be one of {sorted(choices)}, "
                f"got {val!r}{_line_of(self.data, key)}"
            )
            return default
        return val

    def vector(self, key, required=False, default=None):
        val = self._fetch(key, required, default)
        if val is default and key not in self.data:
            return default
        if not isinstance(val, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
        ):
            self.problems.append(
                f"key {key!r} in section {self.name!r} must be a list of numbers"
                f"{_line_of(self.data, key)}"
            )
            return default
        return self._floats(key, lambda: [float(x) for x in val], default)

    def matrix(self, key, required=False, default=None):
        val = self._fetch(key, required, default)
        if val is default and key not in self.data:
            return default
        ok = isinstance(val, list) and val and all(
            isinstance(row, list)
            and len(row) == len(val[0])
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
            for row in val
        )
        if not ok:
            self.problems.append(
                f"key {key!r} in section {self.name!r} must be a rectangular matrix "
                f"(list of equal-length number lists){_line_of(self.data, key)}"
            )
            return default
        return self._floats(key, lambda: np.array(val, dtype=float), default)

    def complex_matrix(self, key, required=False, default=None):
        re = self.matrix(key, required=required, default=None)
        im = self.matrix(key + "_im", required=False, default=None)
        if re is None:
            return default
        out = re.astype(complex)
        if im is not None:
            if im.shape != re.shape:
                self.problems.append(
                    f"key {key + '_im'!r} in section {self.name!r} must match the shape of {key!r}"
                )
            else:
                out = out + 1j * im
        return out

    def finish(self):
        for key in self.data:
            base = key[:-3] if key.endswith("_im") else key
            if key not in self.seen and base not in self.seen:
                self.problems.append(
                    f"unknown key {key!r} in section {self.name!r}{_line_of(self.data, key)}"
                )


@dataclass(frozen=True)
class Scenario:
    """A validated run configuration plus its resolved (defaults-filled) form."""

    run_type: str
    model: object
    grid: object
    initial: dict
    numerics: dict
    output: dict
    resolved: dict


# Marks a numerics key a run type cannot do without.
_REQUIRED = object()

# key -> (test, what the value must be); every numerics and output value a
# scenario gives is checked against its entry here
_NUMERIC_BOUNDS = {
    "dt": (lambda v: 0.0 < v < np.inf, "be a finite number > 0"),
    "t_final": (lambda v: 0.0 < v < np.inf, "be a finite number > 0"),
    "trace_abort": (lambda v: 0.0 < v < np.inf, "be a finite number > 0"),
    "n_steps": (lambda v: v >= 1, "be >= 1"),
    "n_trajectories": (lambda v: v >= 1, "be >= 1"),
    "n_paths": (lambda v: v >= 1, "be >= 1"),
    "stride": (lambda v: v >= 1, "be >= 1"),
    "safety": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "z0_sigma": (lambda v: 0.0 <= v < np.inf, "be a finite number >= 0"),
    "order": (
        lambda v: 0 <= v <= PERTURBATIVE_ORDER_CAP,
        f"lie in [0, {PERTURBATIVE_ORDER_CAP}] (the perturbative order cap)",
    ),
}

_INTEGER_KEYS = {"n_steps", "n_trajectories", "n_paths", "stride", "seed", "order"}


def _read_values(name, block, defaults, problems):
    """Read a numerics or output block: exactly the keys of ``defaults``."""
    # the values meet their _NUMERIC_BOUNDS, which name each one's own range
    sec = _Section(name, block, problems, finite=False)
    values = {}
    for key, default in defaults.items():
        read = sec.integer if key in _INTEGER_KEYS else sec.number
        required = default is _REQUIRED
        val = read(key, required=required, default=None if required else default)
        if val is not None and key in _NUMERIC_BOUNDS and not _NUMERIC_BOUNDS[key][0](val):
            problems.append(
                f"key {key!r} in section {name!r} must {_NUMERIC_BOUNDS[key][1]}, got "
                f"{val!r}{_line_of(sec.data, key)}"
            )
        values[key] = val
    sec.finish()
    return values


def _check_path_steps(block, numerics, problems):
    """sample_paths takes exactly one of t_final and n_steps."""
    given = [key for key in ("t_final", "n_steps") if numerics[key] is not None]
    if len(given) == 2:
        problems.append(
            f"key 't_final'{_line_of(block, 't_final')} and key 'n_steps'"
            f"{_line_of(block, 'n_steps')} in section 'numerics' exclude each other; give one"
        )
    elif not given:
        problems.append("section 'numerics' needs one of 't_final' and 'n_steps'")


def _fit_initial(block, initial, d, problems):
    """The initial quantum data must be a state of the model's ``d`` levels.

    rho_q (whose default [[1.0]] fits d = 1 only) must be a d x d Hermitian,
    positive semidefinite matrix with positive trace, psi a vector of d
    entries with nonzero norm, and the branch indices must lie in [0, d).
    """
    why = {}
    rho = initial.get("rho_q")
    if "rho_q" in initial and rho is None and d != 1:
        why["rho_q"] = f"be given: its default [[1.0]] does not fit a {d}-level model"
    elif rho is not None:
        if rho.shape != (d, d):
            why["rho_q"] = f"be {d} x {d} to fit the model, got {rho.shape[0]} x {rho.shape[1]}"
        elif not _hermitian(rho):
            why["rho_q"] = "be Hermitian"
        elif not is_psd(rho):
            why["rho_q"] = "be positive semidefinite"
        elif not np.trace(rho).real > 0.0:
            why["rho_q"] = "have a positive trace"
    psi = initial.get("psi")
    if psi is not None and psi.size != d:
        why["psi"] = f"have {d} entries to fit the model, got {psi.size}"
    elif psi is not None and not np.linalg.norm(psi) > 0.0:
        why["psi"] = "have a nonzero norm"
    for key, index in zip(("branch_a", "branch_b"), initial.get("pair") or ()):
        if not 0 <= index < d:
            why[key] = f"lie in [0, {d}) to fit the model, got {index}"
    problems.extend(
        f"key {key!r} in section 'initial' must {reason}{_line_of(block, key)}"
        for key, reason in why.items()
    )


def _hermitian(m):
    try:
        require_hermitian(m)
    except ValueError:
        return False
    return True


def parse_scenario_file(path) -> Scenario:
    with open(path) as fh:
        return parse_scenario(fh.read())


def parse_scenario(text) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioError."""
    doc = _load_yaml(text)
    problems = []

    top = _Section("<top>", doc, problems)
    run_type = top.string("run", required=True, choices=set(RUN_TYPES))
    if problems:
        raise ScenarioError(problems)
    schema = _SCHEMA[run_type]
    top.seen.update(schema)
    top.finish()

    built = {}
    resolved = {"run": run_type}
    for section, read in schema.items():
        if callable(read):
            built[section], resolved[section] = read(doc.get(section), problems)
        else:
            built[section] = resolved[section] = _read_values(
                section, doc.get(section), read, problems
            )
    if run_type == "sample_paths":
        _check_path_steps(doc.get("numerics"), built["numerics"], problems)
    if not problems and "initial" in built:
        _fit_initial(doc.get("initial"), built["initial"], built["model"].hilbert_dim, problems)

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        run_type=run_type,
        model=built["model"],
        grid=built.get("grid"),
        initial=built.get("initial", {}),
        numerics=built.get("numerics", {}),
        output=built.get("output", {}),
        resolved=resolved,
    )


def _mat_entries(resolved, key, matrix):
    """Record a complex matrix in the resolved dict using the input schema."""
    if matrix is None:
        resolved[key] = None
        return
    resolved[key] = matrix.real.tolist()
    if np.abs(matrix.imag).max() > 0.0:
        resolved[key + "_im"] = matrix.imag.tolist()


def _build_triple(block, problems):
    sec = _Section("model", block, problems)
    d2 = sec.complex_matrix("d2", required=True)
    d1 = sec.complex_matrix("d1", required=True)
    d0 = sec.complex_matrix("d0", required=True)
    sec.finish()
    if problems or d2 is None or d1 is None or d0 is None:
        return None, None
    try:
        triple = CouplingTriple(d2=d2, d1=d1, d0=d0)
    except ValueError as exc:
        problems.append(f"invalid coupling triple: {exc}")
        return None, None
    resolved = {}
    _mat_entries(resolved, "d2", triple.d2)
    _mat_entries(resolved, "d1", triple.d1)
    _mat_entries(resolved, "d0", triple.d0)
    return triple, resolved


def _build_toy(block, problems):
    sec = _Section("model", block, problems)
    m_phi = sec.number("m_phi", required=True)
    m_q = sec.number("m_q", required=True)
    lam = sec.number("lambda", required=True)
    hbar = sec.number("hbar", default=1.0)
    d2 = sec.number("d2", required=True)
    observable = sec.vector("observable", required=True)
    engine = sec.string("engine", default="both", choices={"perturbative", "quadrature", "both"})
    sec.finish()
    if problems:
        return None, None
    if len(observable) != 3 or any(x < 0 or not x.is_integer() for x in observable):
        problems.append(
            "key 'observable' in section 'model' must be three nonnegative integer powers, "
            f"got {observable!r}{_line_of(sec.data, 'observable')}"
        )
        return None, None
    obs = tuple(int(x) for x in observable)
    try:
        params = ToyParams(m_phi=m_phi, m_q=m_q, lam=lam, hbar=hbar, d2=d2)
    except ValueError as exc:
        problems.append(str(exc))
        return None, None
    resolved = {
        "m_phi": m_phi,
        "m_q": m_q,
        "lambda": lam,
        "hbar": hbar,
        "d2": d2,
        "observable": list(obs),
        "engine": engine,
    }
    return {"params": params, "observable": obs, "engine": engine}, resolved


def _build_cq(block, problems):
    sec = _Section("model", block, problems)
    mass = sec.number("mass", required=True, inf=True)  # an infinite mass freezes q
    hbar = sec.number("hbar", default=1.0)
    potential = sec.vector("potential", default=[0.0])
    h_q = sec.complex_matrix("h_q", required=True)
    v_i_matrix = sec.complex_matrix("v_i_matrix", default=None)
    v_i_profile = sec.vector("v_i_profile", default=[0.0])
    d2 = sec.vector("d2", default=[0.0])
    d0 = sec.vector("d0", default=[0.0])
    sec.finish()
    if problems:
        return None, None
    try:
        model = polynomial_cq_model(
            mass=mass,
            potential_coeffs=potential,
            h_q=h_q,
            v_i_matrix=v_i_matrix,
            v_i_profile=v_i_profile,
            d2_coeffs=d2,
            d0_coeffs=d0,
            hbar=hbar,
        )
    except ValueError as exc:
        problems.append(f"invalid model: {exc}")
        return None, None
    resolved = {
        "mass": mass,
        "hbar": hbar,
        "potential": potential,
        "v_i_profile": v_i_profile,
        "d2": d2,
        "d0": d0,
    }
    _mat_entries(resolved, "h_q", h_q)
    _mat_entries(resolved, "v_i_matrix", v_i_matrix)
    return model, resolved


def _build_measurement(block, problems):
    sec = _Section("model", block, problems)
    z = sec.complex_matrix("z_op", required=True)
    z_fb = sec.complex_matrix("z_feedback", default=None)
    k = sec.number("k", required=True)
    k_slope = sec.number("k_slope", default=0.0)
    h = sec.complex_matrix("h", default=None)
    hbar = sec.number("hbar", default=1.0)
    sec.finish()
    if problems:
        return None, None
    try:
        model = constant_measurement_model(
            z, k, h=h, hbar=hbar, z_feedback=z_fb, k_slope=k_slope
        )
    except ValueError as exc:
        problems.append(f"invalid measurement model: {exc}")
        return None, None
    resolved = {"k": k, "k_slope": k_slope, "hbar": hbar}
    _mat_entries(resolved, "z_op", z)
    _mat_entries(resolved, "z_feedback", z_fb)
    _mat_entries(resolved, "h", h)
    return model, resolved


def _build_grid(block, problems, want_axes, required=True):
    if block is None and not required:
        return None, None
    sec = _Section("grid", block, problems)
    # the grid truncates phase space; the key stays for the resolved scenario
    boundary = sec.string("boundary", default="truncate", choices={"truncate"})
    axes = []
    names = ("q", "p")[:want_axes] if want_axes == 2 else ("z",)
    resolved = {"boundary": boundary}
    for name in names:
        lo = sec.number(f"{name}_min", required=True)
        hi = sec.number(f"{name}_max", required=True)
        n = sec.integer(f"{name}_points", required=True)
        resolved[f"{name}_min"] = lo
        resolved[f"{name}_max"] = hi
        resolved[f"{name}_points"] = n
        if lo is not None and hi is not None and n is not None:
            try:
                axes.append(GridAxis(name, lo, hi, n))
            except ValueError as exc:
                problems.append(f"invalid grid axis {name!r}: {exc}")
    sec.finish()
    if problems or len(axes) != len(names):
        return None, None
    return PhaseGrid(tuple(axes)), resolved


def _build_evolve_initial(block, problems):
    sec = _Section("initial", block, problems)
    q0 = sec.number("q0", default=0.0)
    p0 = sec.number("p0", default=0.0)
    sigma_q = sec.number("sigma_q", required=True)
    sigma_p = sec.number("sigma_p", required=True)
    rho_q = sec.complex_matrix("rho_q", default=None)
    sec.finish()
    for key, width in (("sigma_q", sigma_q), ("sigma_p", sigma_p)):
        if width is not None and not width > 0.0:
            problems.append(
                f"key {key!r} in section 'initial' must be > 0, got {width!r}"
                f"{_line_of(sec.data, key)}"
            )
    initial = {"q0": q0, "p0": p0, "sigma_q": sigma_q, "sigma_p": sigma_p, "rho_q": rho_q}
    resolved = {"q0": q0, "p0": p0, "sigma_q": sigma_q, "sigma_p": sigma_p}
    if rho_q is not None:
        _mat_entries(resolved, "rho_q", rho_q)
    return initial, resolved


def _build_unravel_initial(block, problems):
    sec = _Section("initial", block, problems)
    z0 = sec.number("z0", default=0.0)
    psi = sec.complex_matrix("psi", required=True)
    sec.finish()
    if psi is not None and 1 not in psi.shape and psi.ndim != 1:
        problems.append("key 'psi' in section 'initial' must be a row or column vector")
        return {}, None
    psi_flat = None if psi is None else psi.reshape(-1)
    resolved = {"z0": z0}
    if psi is not None:
        _mat_entries(resolved, "psi", psi_flat.reshape(-1, 1))
    return {"z0": z0, "psi": psi_flat}, resolved


def _build_paths_initial(block, problems):
    sec = _Section("initial", block, problems)
    q0 = sec.number("q0", default=0.0)
    p0 = sec.number("p0", default=0.0)
    a = sec.integer("branch_a", default=None)
    b = sec.integer("branch_b", default=None)
    sec.finish()
    pair = None
    if (a is None) != (b is None):
        problems.append("branch_a and branch_b must be given together in section 'initial'")
    elif a is not None:
        pair = (a, b)
    resolved = {"q0": q0, "p0": p0, "branch_a": a, "branch_b": b}
    return {"q0": q0, "p0": p0, "pair": pair}, resolved


_PHASE_GRID = partial(_build_grid, want_axes=2)

# run type -> the sections it reads.  model, grid and initial name their
# builder; numerics and output map each key to its default, or to
# _REQUIRED.  A section or key missing here is an unknown key.
_SCHEMA = {
    "evolve": {
        "model": _build_cq,
        "grid": _PHASE_GRID,
        "initial": _build_evolve_initial,
        "numerics": {
            "t_final": _REQUIRED,
            "dt": None,
            "safety": 0.4,
            "trace_abort": TRACE_DRIFT_ABORT,
        },
        "output": {"stride": 10},
    },
    "unravel": {
        "model": _build_measurement,
        "grid": partial(_build_grid, want_axes=1),
        "initial": _build_unravel_initial,
        "numerics": {
            "t_final": _REQUIRED,
            "dt": None,
            "safety": 0.4,
            "n_trajectories": 1000,
            "z0_sigma": 0.0,
            "seed": 0,
        },
    },
    "sample_paths": {
        "model": _build_cq,
        "grid": partial(_PHASE_GRID, required=False),
        "initial": _build_paths_initial,
        # exactly one of t_final and n_steps: see _check_path_steps
        "numerics": {
            "dt": _REQUIRED,
            "t_final": None,
            "n_steps": None,
            "n_paths": 1000,
            "seed": 0,
        },
    },
    "zerodim": {"model": _build_toy, "numerics": {"order": 2}},
    "cp_check": {"model": _build_triple},
}
