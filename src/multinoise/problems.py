"""Problem-file schema, result serialization and built-in instances.

A problem is a single JSON document with matrices as row-major nested
arrays. Field names follow the conventional symbols: A, B (nominal plant),
A_bar, B_bar (true plant, optional), A_dirs/alpha and B_dirs/beta (noise
directions and variances), theta/phi (relative uncertainty magnitudes),
Q/R (costs) and an optional "options" block with solver overrides. One
table holds each option's key, the field it sets and its command-line
flag, and one setter applies the block's values and the flags alike.

Problem files and the result documents that ``verify-grid`` and
``simulate`` read back go through one JSON reader. Parse failures raise
:class:`ProblemFormatError` naming the offending field, a missing one as
``field 'eta': missing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .design import DesignDiagnostics, DesignResult
from .errors import ProblemFormatError
from .gare import GareOptions
from .margins import BisectOptions, MarginCertificate, MarginMethod
from .model import (
    CostPair,
    NoiseModel,
    NominalSystem,
    PerturbationBox,
    TrueSystem,
    UncertaintyStructure,
    _check_cost_shapes,
    _check_true_shapes,
)

__all__ = [
    "Problem",
    "parse_problem",
    "load_problem",
    "inverted_pendulum",
    "certificate_to_dict",
    "certificate_from_dict",
    "design_result_to_dict",
    "design_result_from_dict",
]


@dataclass
class Problem:
    """A fully parsed problem instance."""

    system: NominalSystem
    noise: NoiseModel
    true_system: TrueSystem | None = None
    structure: UncertaintyStructure | None = None
    costs: CostPair | None = None
    gare_options: GareOptions = field(default_factory=GareOptions)
    bisect_options: BisectOptions = field(default_factory=BisectOptions)

    def require_costs(self) -> CostPair:
        if self.costs is None:
            raise ProblemFormatError("field 'Q'/'R': cost matrices required "
                                     "for this command")
        return self.costs

    def require_structure(self) -> UncertaintyStructure:
        if self.structure is None:
            raise ProblemFormatError("field 'theta': uncertainty magnitudes "
                                     "required for this command")
        return self.structure


def _numeric(value, name: str, scalar: bool = False,
             optional: bool = False):
    """Float array of a field's value, or a float if ``scalar``, or None if
    ``optional`` and the value is null. Every entry must be a JSON int or
    float: a string, bool or null entry is rejected leaf by leaf, since
    ``float("nan")`` and ``float(True)`` would pass, and so are NaN and inf,
    so that none reaches a solver as a divergence or a numerical failure."""
    if optional and value is None:
        return None
    leaves = [value]
    while leaves:
        x = leaves.pop()
        if isinstance(x, list):
            leaves.extend(x)
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ProblemFormatError(
                f"field '{name}': expected a JSON number, got {x!r}")
    try:
        M = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged, or past float range
        raise ProblemFormatError(f"field '{name}': not numeric ({exc})") from exc
    if not np.all(np.isfinite(M)):
        raise ProblemFormatError(f"field '{name}': entries must be finite")
    if not scalar:
        return M
    if M.ndim:
        raise ProblemFormatError(f"field '{name}': expected a number")
    return float(M)


def _required(data: dict, name: str):
    """The value of the field ``name``, which must be present."""
    if name not in data:
        raise ProblemFormatError(f"field '{name}': missing")
    return data[name]


def _matrix(data: dict, name: str, required: bool = True) -> np.ndarray | None:
    if not required and name not in data:
        return None
    M = _numeric(_required(data, name), name)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ProblemFormatError(f"field '{name}': expected a matrix")
    return M


def _vector(data: dict, name: str, length: int | None = None) -> np.ndarray | None:
    if name not in data:
        return None
    v = np.atleast_1d(_numeric(data[name], name))
    if v.ndim != 1:
        raise ProblemFormatError(f"field '{name}': expected a flat list")
    if length is not None and v.size != length:
        raise ProblemFormatError(
            f"field '{name}': expected {length} entries, got {v.size}"
        )
    return v


def _dir_list(data: dict, name: str, var_name: str, shape: tuple) -> list:
    mats = data.get(name, [])
    if not isinstance(mats, list):
        raise ProblemFormatError(f"field '{name}': expected a list of matrices")
    out = []
    for i, m in enumerate(mats):
        M = _numeric(m, f"{name}[{i}]")
        if M.shape != shape:
            raise ProblemFormatError(
                f"field '{name}[{i}]': expected a {shape[0]}x{shape[1]} "
                f"matrix, got shape {M.shape}"
            )
        out.append(M)
    variances = _vector(data, var_name, len(out))
    if variances is None:
        variances = np.zeros(len(out))
    for i, v in enumerate(variances):
        if v < 0:
            raise ProblemFormatError(
                f"field '{var_name}[{i}]': must be nonnegative, got {v}"
            )
    return [(M, float(v)) for M, v in zip(out, variances)]


#: each key of the "options" block: the options attribute of
#: :class:`Problem` and the field it sets, and the command-line flag that
#: overrides it, or None for a key the command line does not set
_OPTIONS = {
    "tol_abs": ("gare_options", "tol_abs", None),
    "tol_rel": ("gare_options", "tol_rel", "--tol"),
    "blowup": ("gare_options", "blowup", "--blowup"),
    "max_iter": ("gare_options", "max_iter", "--max-iter"),
    "bisect_rel_tol": ("bisect_options", "rel_tol", "--bisect-tol"),
}


def _option_value(value, key: str) -> float | int:
    """An option's JSON number as the value of its field: a float, or an
    int for an integral max_iter."""
    x = _numeric(value, f"options.{key}", scalar=True)
    if key == "max_iter" and x.is_integer():
        return value if isinstance(value, int) else int(x)
    return x


def _named(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ``ValueError`` it raises named by
    ``where``: a model constructor's by the fields it read, an options
    update's by the key or flag that set it."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _set_option(problem: Problem, key: str, value, where: str) -> None:
    """Set the solver option ``key`` of ``problem``; the options classes
    check the value, and a bad one is named by ``where``."""
    group, name, _ = _OPTIONS[key]
    setattr(problem, group,
            _named(where, replace, getattr(problem, group), **{name: value}))


def _optional_pair(data: dict, build, a: str, b: str):
    """``build`` from the matrix fields ``a`` and ``b``, both or neither of
    which must be given; None for neither."""
    x, y = _matrix(data, a, required=False), _matrix(data, b, required=False)
    if (x is None) != (y is None):
        raise ProblemFormatError(
            f"field '{a}'/'{b}': both or neither must be given")
    if x is None:
        return None
    return _named(f"field '{a}'/'{b}'", build, **{a: x, b: y})


def parse_problem(data: dict) -> Problem:
    """Build a :class:`Problem` from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ProblemFormatError("top level: expected a JSON object")
    system = _named("field 'A'/'B'", NominalSystem,
                    A=_matrix(data, "A"), B=_matrix(data, "B"))
    true_system = _optional_pair(data, TrueSystem, "A_bar", "B_bar")
    _named("field 'A_bar'/'B_bar'", _check_true_shapes, system, true_system)

    n, m = system.n, system.m
    # more state directions than entries of A is the constructor's error
    noise = _named("field 'A_dirs'", NoiseModel,
                   a_dirs=_dir_list(data, "A_dirs", "alpha", (n, n)),
                   b_dirs=_dir_list(data, "B_dirs", "beta", (n, m)))

    structure = None
    theta = _vector(data, "theta", noise.p if noise.p else None)
    phi = _vector(data, "phi", noise.q if noise.q else None)
    if theta is not None or phi is not None:
        if theta is None:
            raise ProblemFormatError("field 'theta': required when phi is given")
        structure = _named(
            "field 'theta'/'phi'", UncertaintyStructure, theta=theta,
            phi=phi if phi is not None else np.zeros(noise.q))
        if structure.p != noise.p or structure.q != noise.q:
            raise ProblemFormatError(
                "field 'theta'/'phi': lengths must match A_dirs/B_dirs"
            )

    costs = _optional_pair(data, CostPair, "Q", "R")
    if costs is not None:
        _named("field 'Q'/'R'", _check_cost_shapes, system, costs)
    problem = Problem(system=system, noise=noise, true_system=true_system,
                      structure=structure, costs=costs)
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise ProblemFormatError("field 'options': expected an object")
    for key in opts:
        if key not in _OPTIONS:
            raise ProblemFormatError(f"field 'options.{key}': unknown option")
    for key in _OPTIONS:
        if key in opts:
            _set_option(problem, key, _option_value(opts[key], key),
                        f"field 'options.{key}'")
    return problem


def _read_json(path, prefix: str = ""):
    """The JSON value of the file at ``path``; a syntax error is reported
    at its line and column, after ``prefix``."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{prefix}line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_problem(path) -> Problem:
    """Read and parse a problem file."""
    return parse_problem(_read_json(path))


def inverted_pendulum() -> Problem:
    """Built-in benchmark: torque-actuated inverted pendulum, linearized and
    Euler-discretized with step 0.1.

    The nominal model underestimates the mass constant (5 instead of the
    true 10), which shows up as uncertainty in the (2,1) entry of the
    dynamics matrix; the single uncertainty direction selects exactly that
    entry. The embedded solver options pin this benchmark's reference
    figures: near the stabilizability boundary the value iteration
    converges arbitrarily slowly, so the feasibility frontier (and with it
    the reported gains and margins) depends on the stopping rule.
    """
    dt = 0.1
    mass_nominal, mass_true = 5.0, 10.0
    A = np.array([[1.0, dt], [mass_nominal * dt, 1.0]])
    A_bar = np.array([[1.0, dt], [mass_true * dt, 1.0]])
    B = np.array([[0.0], [dt]])
    return Problem(
        system=NominalSystem(A=A, B=B),
        noise=NoiseModel(a_dirs=[(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)]),
        true_system=TrueSystem(A_bar=A_bar, B_bar=B.copy()),
        structure=UncertaintyStructure(theta=np.array([1.0])),
        costs=CostPair(Q=np.eye(2), R=np.eye(1)),
        gare_options=GareOptions(tol_abs=0.0, tol_rel=1e-6, max_iter=1000),
        bisect_options=BisectOptions(),
    )


def _opt_matrix_to_list(M: np.ndarray | None):
    return None if M is None else np.asarray(M).tolist()


def _json_bool(data: dict, name: str, default: bool | None = None) -> bool:
    """A JSON true or false, or ``default`` if given and the field is absent;
    ``bool("false")`` would be True."""
    value = (_required(data, name) if default is None
             else data.get(name, default))
    if not isinstance(value, bool):
        raise ProblemFormatError(
            f"field '{name}': expected true or false, got {value!r}")
    return value


def certificate_to_dict(cert: MarginCertificate) -> dict:
    return {
        "method": cert.method.value,
        "y_star": cert.y_star,
        "eta": cert.box.eta.tolist(),
        "psi": cert.box.psi.tolist(),
        "bidirectional": cert.box.bidirectional,
        "cap_hit": cert.cap_hit,
        "P": _opt_matrix_to_list(cert.P),
        "q_matrix": _opt_matrix_to_list(cert.q_matrix),
        "zeta": None if cert.zeta is None else np.asarray(cert.zeta).tolist(),
    }


def certificate_from_dict(data: dict) -> MarginCertificate:
    if not isinstance(data, dict):
        raise ProblemFormatError(
            "certificate document: expected a JSON object")
    try:
        box = PerturbationBox(
            eta=_numeric(_required(data, "eta"), "eta"),
            psi=_numeric(_required(data, "psi"), "psi"),
            bidirectional=_json_bool(data, "bidirectional"),
        )
        return MarginCertificate(
            box=box,
            method=MarginMethod(_required(data, "method")),
            y_star=_numeric(_required(data, "y_star"), "y_star",
                            scalar=True),
            P=_numeric(data.get("P"), "P", optional=True),
            q_matrix=_numeric(data.get("q_matrix"), "q_matrix", optional=True),
            zeta=_numeric(data.get("zeta"), "zeta", optional=True),
            cap_hit=_json_bool(data, "cap_hit", False),
        )
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"certificate document: {exc}") from exc


def design_result_to_dict(result: DesignResult) -> dict:
    d = result.diagnostics
    return {
        "K": result.K.tolist(),
        "y_star": result.y_star,
        "z_star": result.z_star,
        "cap_hit": result.cap_hit,
        "certificate": None if result.certificate is None
        else certificate_to_dict(result.certificate),
        "diagnostics": {
            "rho_closed_loop": d.rho_closed_loop,
            "worst_box_rho": d.worst_box_rho,
            "rho_true_closed_loop": d.rho_true_closed_loop,
        },
    }


def design_result_from_dict(data: dict) -> DesignResult:
    if not isinstance(data, dict):
        raise ProblemFormatError("design document: expected a JSON object")
    try:
        diag = data.get("diagnostics", {})
        if not isinstance(diag, dict):
            raise ProblemFormatError("field 'diagnostics': expected an object")
        radii = {key: _numeric(diag.get(key), f"diagnostics.{key}",
                               scalar=True, optional=key != "rho_closed_loop")
                 for key in ("rho_closed_loop", "worst_box_rho",
                             "rho_true_closed_loop")}
        return DesignResult(
            K=_numeric(_required(data, "K"), "K"),
            certificate=None if data.get("certificate") is None
            else certificate_from_dict(data["certificate"]),
            y_star=_numeric(_required(data, "y_star"), "y_star",
                            scalar=True),
            z_star=_numeric(data.get("z_star"), "z_star", scalar=True,
                            optional=True),
            diagnostics=DesignDiagnostics(**radii),
            cap_hit=_json_bool(data, "cap_hit", False),
        )
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"design document: {exc}") from exc
