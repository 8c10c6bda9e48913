"""Declarative run configurations: parsing, validation, model building.

A scenario is a YAML document with nested sections: a ``run`` type and the
sections that run type reads, listed in `_SCHEMA`:

* evolve:       model, grid, initial, numerics, output
* unravel:      model, grid, initial, numerics
* sample_paths: model, grid (optional), initial, numerics
* zerodim:      model, numerics
* cp_check:     model

`_SCHEMA` also names each run type's numerics keys with their defaults (or
marks them required).  Every value is read by `_Section._read`, which
type-checks it, makes the numbers of the model, grid and initial sections
finite (an infinite mass excepted) and checks the value against its
`_BOUNDS` entry, so a scenario is rejected here, before any run starts,
for every such reason.  Parsing is strict: duplicate keys, unknown keys
(including a section or key another run type reads), missing keys, type
mismatches and out-of-range values are all reported with the offending
key and line number, and the initial quantum data must be a state of the
model's levels (`_fit_initial`).  Matrices are nested lists of reals; a
matrix key ``<key>`` may have a ``<key>_im`` beside it for an imaginary
part, and ``<key>_im`` is accepted nowhere else.  Scalar q- or
z-dependent coefficients are polynomial coefficient lists, low order
first.

The resolved scenario is embedded verbatim in every output artifact for
provenance.  `_read` records each value it returns, the default for an
absent key, so a section's resolved values are what its reads returned; a
``<key>_im`` is recorded only when it is nonzero.  Three builders reshape
one value: ``rho_q`` is left out when not given, ``psi`` is recorded as a
column and ``observable`` as integers.  The runner reads nothing else.

The parser derives no step: the steps a run takes from ``t_final`` and
``dt`` are decided by the runner (`runner._plan`), for sample_paths as for
evolve and unravel.
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
from .state import LEAK_LIMIT
from .unravel import SEED_LIMIT
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
    """Reader over one mapping block: every value goes through `_read`.

    Each problem is appended to ``problems`` with the key and its line, and
    each value read is recorded in ``resolved``, which `finish` returns.
    """

    def __init__(self, name, data, problems, finite=True):
        self.name = name
        self.finite = finite
        self.data = data if data is not None else _LocatedDict()
        self.problems = problems
        self.seen = set()
        self.resolved = {}
        if not isinstance(self.data, dict):
            problems.append(f"section {name!r} must be a mapping")
            self.data = _LocatedDict()

    def _refuse(self, key, why):
        where = f"key {key!r} in section {self.name!r}"
        self.problems.append(f"{where} {why}{_line_of(self.data, key)}")

    def _read(self, key, required, default, ok, what, convert):
        """The value of ``key``, recorded in `resolved`: ``default`` when it
        is absent or refused.

        A given value must pass ``ok`` (else it must be ``what``, where
        ``{type}`` names the value's type), then ``convert``, which raises
        ValueError saying what is wrong, then its `_BOUNDS` entry.
        """
        self.seen.add(key)
        val = default
        if key not in self.data:
            if required:
                self.problems.append(f"missing required key {key!r} in section {self.name!r}")
        else:
            raw = self.data[key]
            try:
                if not ok(raw):
                    raise ValueError(f"must be {what.format(type=type(raw).__name__)}")
                got = convert(raw)
                if key in _BOUNDS and not _BOUNDS[key][0](got):
                    raise ValueError(f"must {_BOUNDS[key][1]}, got {got!r}")
                val = got
            except ValueError as exc:
                self._refuse(key, exc)
        self.resolved[key] = val
        return val

    def number(self, key, required=False, default=None, inf=False):
        convert = partial(_floats, finite=self.finite, inf=inf)
        return self._read(key, required, default, _is_number, "a number, got {type}", convert)

    def integer(self, key, required=False, default=None):
        return self._read(key, required, default, _is_integer, "an integer", int)

    def string(self, key, choices, required=False, default=None):
        convert = partial(_one_of, choices)
        return self._read(key, required, default, _is_string, "a string", convert)

    def vector(self, key, required=False, default=None):
        convert = partial(_floats, finite=self.finite)
        return self._read(key, required, default, _is_vector, "a list of numbers", convert)

    def complex_matrix(self, key, required=False):
        """The matrix ``key`` plus i times ``key_im``, or None when ``key``
        is absent; ``key_im`` is recorded only when it is nonzero."""
        read = partial(
            self._read, ok=_is_matrix, convert=partial(_floats, finite=self.finite),
            what="a rectangular matrix (list of equal-length number lists)",
        )
        re = read(key, required, None)
        im = read(key + "_im", False, None)
        if not np.any(im):
            del self.resolved[key + "_im"]
        if re is None:
            if key + "_im" in self.data and key not in self.data:
                self._refuse(key + "_im", f"is given without key {key!r}")
            return None
        out = np.array(re, dtype=complex)
        if im is None:
            return out
        if np.shape(im) != out.shape:
            self._refuse(key + "_im", f"must match the shape of {key!r}")
            return None
        return out + 1j * np.array(im)

    def finish(self):
        """Report every key no read consumed; return the resolved values."""
        for key in self.data:
            if key not in self.seen:
                self.problems.append(
                    f"unknown key {key!r} in section {self.name!r}{_line_of(self.data, key)}"
                )
        return self.resolved


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_string(value):
    return isinstance(value, str)


def _is_vector(value):
    return isinstance(value, list) and all(map(_is_number, value))


def _is_matrix(value):
    return (
        isinstance(value, list)
        and bool(value)
        and all(_is_vector(row) and len(row) == len(value[0]) for row in value)
    )


def _floats(value, finite, inf=False):
    """A number or nested number lists as floats; ``finite`` makes every
    entry finite (with ``inf``, at least not nan)."""
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:
        raise ValueError("is too large for a float") from None
    if finite:
        bad = np.isnan(arr) if inf else ~np.isfinite(arr)
        if bad.any():
            must = "not be nan" if inf else "be finite"
            raise ValueError(f"must {must}, got {float(arr[bad][0])!r}")
    return arr.tolist()


def _one_of(choices, value):
    if value not in choices:
        raise ValueError(f"must be one of {sorted(choices)}, got {value!r}")
    return value


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

# key -> (test, what the value must be): `_Section._read` checks every value
# of that name a scenario gives against its entry here
_BOUNDS = {
    "dt": (lambda v: 0.0 < v < np.inf, "be a finite number > 0"),
    "t_final": (lambda v: 0.0 < v < np.inf, "be a finite number > 0"),
    "trace_abort": (
        lambda v: 0.0 < v <= LEAK_LIMIT,
        f"lie in (0, {LEAK_LIMIT:.0e}] (the leakage cap)",
    ),
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
    "sigma_q": (lambda v: v > 0.0, "be > 0"),
    "sigma_p": (lambda v: v > 0.0, "be > 0"),
    "seed": (lambda v: 0 <= v < SEED_LIMIT, "lie in [0, 2**64)"),
}

_INTEGER_KEYS = {"n_steps", "n_trajectories", "n_paths", "stride", "seed", "order"}


def _read_values(name, block, defaults, problems):
    """Read a numerics or output block: exactly the keys of ``defaults``."""
    sec = _Section(name, block, problems, finite=False)
    for key, default in defaults.items():
        read = sec.integer if key in _INTEGER_KEYS else sec.number
        required = default is _REQUIRED
        read(key, required=required, default=None if required else default)
    return sec.finish()


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
    run_type = top.string("run", set(RUN_TYPES), required=True)
    if problems:
        raise ScenarioError(problems)
    schema = _SCHEMA[run_type]
    top.seen.update(schema)
    resolved = top.finish()

    built = {}
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


def _build_triple(block, problems):
    sec = _Section("model", block, problems)
    d2 = sec.complex_matrix("d2", required=True)
    d1 = sec.complex_matrix("d1", required=True)
    d0 = sec.complex_matrix("d0", required=True)
    resolved = sec.finish()
    if problems:
        return None, None
    try:
        triple = CouplingTriple(d2=d2, d1=d1, d0=d0)
    except ValueError as exc:
        problems.append(f"invalid coupling triple: {exc}")
        return None, None
    return triple, resolved


def _build_toy(block, problems):
    sec = _Section("model", block, problems)
    m_phi = sec.number("m_phi", required=True)
    m_q = sec.number("m_q", required=True)
    lam = sec.number("lambda", required=True)
    hbar = sec.number("hbar", default=1.0)
    d2 = sec.number("d2", required=True)
    observable = sec.vector("observable", required=True)
    engine = sec.string("engine", {"perturbative", "quadrature", "both"}, default="both")
    resolved = sec.finish()
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
    resolved["observable"] = list(obs)
    return {"params": params, "observable": obs, "engine": engine}, resolved


def _build_cq(block, problems):
    sec = _Section("model", block, problems)
    mass = sec.number("mass", required=True, inf=True)  # an infinite mass freezes q
    hbar = sec.number("hbar", default=1.0)
    potential = sec.vector("potential", default=[0.0])
    h_q = sec.complex_matrix("h_q", required=True)
    v_i_matrix = sec.complex_matrix("v_i_matrix")
    v_i_profile = sec.vector("v_i_profile", default=[0.0])
    d2 = sec.vector("d2", default=[0.0])
    d0 = sec.vector("d0", default=[0.0])
    resolved = sec.finish()
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
    return model, resolved


def _build_measurement(block, problems):
    sec = _Section("model", block, problems)
    z = sec.complex_matrix("z_op", required=True)
    z_fb = sec.complex_matrix("z_feedback")
    k = sec.number("k", required=True)
    k_slope = sec.number("k_slope", default=0.0)
    h = sec.complex_matrix("h")
    hbar = sec.number("hbar", default=1.0)
    resolved = sec.finish()
    if problems:
        return None, None
    try:
        model = constant_measurement_model(
            z, k, h=h, hbar=hbar, z_feedback=z_fb, k_slope=k_slope
        )
    except ValueError as exc:
        problems.append(f"invalid measurement model: {exc}")
        return None, None
    return model, resolved


def _build_grid(block, problems, want_axes, required=True):
    if block is None and not required:
        return None, None
    sec = _Section("grid", block, problems)
    # the grid truncates phase space; the key stays for the resolved scenario
    sec.string("boundary", {"truncate"}, default="truncate")
    axes = []
    names = ("q", "p")[:want_axes] if want_axes == 2 else ("z",)
    for name in names:
        lo = sec.number(f"{name}_min", required=True)
        hi = sec.number(f"{name}_max", required=True)
        n = sec.integer(f"{name}_points", required=True)
        if lo is not None and hi is not None and n is not None:
            try:
                axes.append(GridAxis(name, lo, hi, n))
            except ValueError as exc:
                problems.append(f"invalid grid axis {name!r}: {exc}")
    resolved = sec.finish()
    if problems or len(axes) != len(names):
        return None, None
    return PhaseGrid(tuple(axes)), resolved


def _build_evolve_initial(block, problems):
    sec = _Section("initial", block, problems)
    q0 = sec.number("q0", default=0.0)
    p0 = sec.number("p0", default=0.0)
    sigma_q = sec.number("sigma_q", required=True)
    sigma_p = sec.number("sigma_p", required=True)
    rho_q = sec.complex_matrix("rho_q")
    resolved = sec.finish()
    if rho_q is None:  # provenance records rho_q only when it is given
        del resolved["rho_q"]
    initial = {"q0": q0, "p0": p0, "sigma_q": sigma_q, "sigma_p": sigma_p, "rho_q": rho_q}
    return initial, resolved


def _build_unravel_initial(block, problems):
    sec = _Section("initial", block, problems)
    z0 = sec.number("z0", default=0.0)
    psi = sec.complex_matrix("psi", required=True)
    resolved = sec.finish()
    if psi is None:
        return {}, None
    if 1 not in psi.shape:
        problems.append("key 'psi' in section 'initial' must be a row or column vector")
        return {}, None
    for key in ("psi", "psi_im"):  # provenance records psi as a column
        if key in resolved:
            resolved[key] = np.reshape(resolved[key], (-1, 1)).tolist()
    return {"z0": z0, "psi": psi.reshape(-1)}, resolved


def _build_paths_initial(block, problems):
    sec = _Section("initial", block, problems)
    q0 = sec.number("q0", default=0.0)
    p0 = sec.number("p0", default=0.0)
    a = sec.integer("branch_a", default=None)
    b = sec.integer("branch_b", default=None)
    resolved = sec.finish()
    pair = None
    if (a is None) != (b is None):
        problems.append("branch_a and branch_b must be given together in section 'initial'")
    elif a is not None:
        pair = (a, b)
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
