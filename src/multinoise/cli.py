"""Command-line front end.

Every subcommand reads a JSON problem document (except the built-in
benchmark reproduction) and prints either a human-readable report or a
machine-readable JSON document. ``design`` and ``reproduce-pendulum`` run
their designs through one runner; ``verify-grid`` and ``simulate`` read a
``--cert`` result document and close the loop through one loader. The
solver flags are read from the option table of :mod:`multinoise.problems`.
Exit codes: 0 success, 1 infeasible or unstabilizable instance (a domain
outcome, reported in the output), 2 bad input, 3 numerical failure, or a
solver limit reached without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import numpy.linalg as la

from . import __version__
from .design import (
    DesignDiagnostics,
    DesignOptions,
    DesignResult,
    certainty_equivalent,
    design_algorithm_1,
    design_algorithm_2,
)
from .errors import (
    DimensionError,
    GridSizeError,
    NotMeanSquareStableError,
    NumericalError,
    ProblemFormatError,
    SingularPencilError,
    UnstabilizableError,
)
from .gare import solve_gare
from .margins import MarginMethod, compute_margins, conservative_margins
from .matops import spectral_radius
from .model import closed_loop_substitution
from .problems import (
    _OPTIONS,
    Problem,
    _named,
    _read_json,
    _set_option,
    certificate_from_dict,
    certificate_to_dict,
    design_result_from_dict,
    design_result_to_dict,
    inverted_pendulum,
    load_problem,
)
from .stability import is_mean_square_stable
from .verify import MonteCarloConfig, grid_verify, simulate_second_moment

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


def _fmt_value(v) -> str:
    if isinstance(v, bool) or v is None:
        return str(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _fmt_matrix(rows) -> str:
    return "[" + "; ".join(
        " ".join(_fmt_value(float(x)) for x in row) for row in rows
    ) + "]"


def _render(data, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render(value, indent + 1))
        elif (isinstance(value, list) and value
              and isinstance(value[0], (list, tuple))):
            lines.append(f"{pad}{key}: {_fmt_matrix(value)}")
        elif isinstance(value, (list, tuple)):
            lines.append(
                f"{pad}{key}: [" + " ".join(_fmt_value(x) for x in value) + "]"
            )
        else:
            lines.append(f"{pad}{key}: {_fmt_value(value)}")
    return lines


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        print("\n".join(_render(data)))


def _apply_overrides(problem: Problem, args) -> None:
    # a subcommand parses only the solver flags it reads
    for key, (_, _, flag) in _OPTIONS.items():
        value = flag and getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            _set_option(problem, key, value, f"option '{flag}'")


def _run_design(problem: Problem, algo: str,
                samples: int = 10_000) -> DesignResult:
    """Run the design ``algo`` ("ce", "1" or "2") with the problem's solver
    options and ``samples`` grid samples per direction for its diagnostic."""
    costs = problem.require_costs()
    opts = _named("option '--samples'", DesignOptions,
                  gare=problem.gare_options, bisect=problem.bisect_options,
                  grid_samples_per_dir=samples)
    if algo == "ce":
        return certainty_equivalent(problem.system, costs, opts,
                                    problem.true_system)
    structure = problem.require_structure()
    fn = design_algorithm_1 if algo == "1" else design_algorithm_2
    return fn(problem.system, costs, [D for D, _ in problem.noise.a_dirs],
              [D for D, _ in problem.noise.b_dirs], structure, opts,
              problem.true_system)


def cmd_check_mss(args) -> int:
    problem = load_problem(args.problem)
    mss, radius = is_mean_square_stable(problem.system.A, problem.noise.a_dirs)
    _emit({"mss": mss, "moment_radius": radius}, args.format)
    return EXIT_OK if mss else EXIT_INFEASIBLE


def cmd_solve_gare(args) -> int:
    problem = load_problem(args.problem)
    _apply_overrides(problem, args)
    costs = problem.require_costs()
    sol = solve_gare(problem.system, problem.noise, costs,
                     problem.gare_options)
    out: dict = {"converged": sol.converged, "status": sol.status,
                 "iterations": sol.iterations}
    if sol.converged:
        A_cl, dirs = closed_loop_substitution(problem.system, problem.noise,
                                              sol.K)
        mss, radius = is_mean_square_stable(A_cl, dirs)
        out.update({
            "P": sol.P.tolist(),
            "K": sol.K.tolist(),
            "closed_loop_mss": mss,
            "closed_loop_moment_radius": radius,
            "rho_closed_loop": spectral_radius(A_cl),
        })
        _emit(out, args.format)
        return EXIT_OK if mss else EXIT_INFEASIBLE
    if sol.status == "iteration_cap":
        out["reason"] = (f"stopped at the iteration cap ({sol.iterations}) "
                         "before converging; stabilizability is undecided")
        _emit(out, args.format)
        return EXIT_NUMERICAL
    out["reason"] = ("diverged: not mean-square stabilizable at these "
                     "variances")
    _emit(out, args.format)
    return EXIT_INFEASIBLE


def cmd_margins(args) -> int:
    problem = load_problem(args.problem)
    if problem.noise.q:
        raise ProblemFormatError(
            "field 'B_dirs': open-loop margins are defined for state-matrix "
            "uncertainty; input-matrix uncertainty needs a gain, use 'design'"
        )
    method = MarginMethod(args.method)
    A, dirs = problem.system.A, problem.noise.a_dirs
    # the conservative methods read no weights, so theta is optional
    if method in (MarginMethod.CONS_LINEARIZED, MarginMethod.CONS_SIMPLE):
        cert = conservative_margins(A, dirs, kind=method)
    else:
        cert = compute_margins(method, A, dirs, problem.require_structure())
    _emit(certificate_to_dict(cert), args.format)
    return EXIT_OK


def cmd_design(args) -> int:
    problem = load_problem(args.problem)
    _apply_overrides(problem, args)
    out = design_result_to_dict(_run_design(problem, args.algo))
    out["algo"] = args.algo
    _emit(out, args.format)
    return EXIT_OK


def _closed_loop(problem: Problem, path, need_certificate: bool = False):
    """Close the problem's loop with the gain of the result document at
    ``path``: a design result's gain, or zero for a bare margin certificate
    or no path. Returns the closed loop, its directions and the document's
    certificate, which ``need_certificate`` makes required."""
    K = cert = None
    if path == "":
        raise ProblemFormatError("option '--cert': empty path")
    if path is not None:
        data = _read_json(path, "certificate file, ")
        if not isinstance(data, dict):
            raise ProblemFormatError(
                "certificate file: expected a JSON object")
        if "K" in data:
            result = design_result_from_dict(data)
            K, cert = result.K, result.certificate
        else:
            cert = certificate_from_dict(data)
    if need_certificate and cert is None:
        raise ProblemFormatError(
            "certificate file: design result carries no margin certificate"
        )
    if K is None:
        K = np.zeros((problem.system.m, problem.system.n))
    A_cl, dirs = closed_loop_substitution(problem.system, problem.noise, K)
    return A_cl, dirs, cert


def cmd_verify_grid(args) -> int:
    problem = load_problem(args.problem)
    A_cl, dirs, cert = _closed_loop(problem, args.cert, need_certificate=True)
    try:
        report = grid_verify(A_cl, dirs, cert.box, args.samples)
    except GridSizeError as exc:
        raise ProblemFormatError(f"option '--samples': {exc}") from exc
    except DimensionError as exc:
        # the problem's directions were checked on loading; the box was not
        raise ProblemFormatError(f"certificate file: {exc}") from exc
    _emit({
        "samples": report.samples,
        "worst_rho": report.worst_rho,
        "worst_mu": report.worst_mu.tolist(),
        "all_stable": report.all_stable,
        "eigensolves": report.eigensolves,
    }, args.format)
    return EXIT_OK if report.all_stable else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    A_cl, dirs, _ = _closed_loop(problem, args.cert)
    cfg = MonteCarloConfig(horizon=args.horizon, trials=args.trials,
                           seed=args.seed, noise_law=args.law)
    hist = simulate_second_moment(A_cl, dirs, cfg, np.eye(problem.system.n))
    emp_norm = [float(la.norm(S, "fro")) for S in hist.empirical]
    exact_norm = [float(la.norm(S, "fro")) for S in hist.exact]
    out = {
        "horizon": cfg.horizon,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "noise_law": cfg.noise_law,
        "empirical_norm": emp_norm,
        "exact_norm": exact_norm,
        "final_empirical": hist.empirical[-1].tolist(),
        "final_exact": hist.exact[-1].tolist(),
    }
    _emit(out, args.format)
    return EXIT_OK


def _pendulum_report(samples: int) -> dict:
    problem = inverted_pendulum()
    sys_, true_sys = problem.system, problem.true_system
    K = np.zeros((sys_.m, sys_.n))
    open_loop = DesignResult(
        K=K, certificate=None, y_star=0.0, z_star=None,
        diagnostics=DesignDiagnostics(
            rho_closed_loop=spectral_radius(sys_.A),
            rho_true_closed_loop=spectral_radius(
                true_sys.A_bar + true_sys.B_bar @ K)))

    def column(result: DesignResult) -> dict:
        d, cert = result.diagnostics, result.certificate
        eta1 = None
        if cert is not None and cert.box.eta.size:
            eta1 = float(cert.box.eta[0])
        return {
            "K": result.K.tolist(),
            "rho_true_closed_loop": d.rho_true_closed_loop,
            "rho_closed_loop": d.rho_closed_loop,
            "eta_1": eta1,
            "worst_box_rho": d.worst_box_rho,
        }

    report = {"instance": "inverted-pendulum", "grid_samples": samples,
              "open_loop": column(open_loop)}
    for key, algo in (("certainty_equivalent", "ce"), ("algorithm_1", "1"),
                      ("algorithm_2", "2")):
        report[key] = column(_run_design(problem, algo, samples))
    return report


def _pendulum_table(report: dict) -> str:
    cols = ["open_loop", "certainty_equivalent", "algorithm_1", "algorithm_2"]
    headers = ["parameter", "open-loop", "certainty-equiv", "algorithm-1",
               "algorithm-2"]
    rows = [
        ("K", "K"),
        ("rho(true closed loop)", "rho_true_closed_loop"),
        ("rho(nominal closed loop)", "rho_closed_loop"),
        ("eta_1", "eta_1"),
        ("max rho over box", "worst_box_rho"),
    ]
    cells = [headers]
    for label, key in rows:
        row = [label]
        for c in cols:
            v = report[c][key]
            if key == "K":
                row.append(_fmt_matrix(v))
            elif v is None:
                row.append("-")
            else:
                row.append(_fmt_value(float(v)))
        cells.append(row)
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     .rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def cmd_reproduce_pendulum(args) -> int:
    report = _pendulum_report(args.samples)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_pendulum_table(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multinoise",
        description="Robust stability certificates and robust LQR design "
                    "for linear systems with multiplicative noise.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["table", "json"],
                        default="table", help="output format")
    riccati = argparse.ArgumentParser(add_help=False)
    riccati.add_argument("--tol", type=float, default=None,
                         help="relative convergence tolerance override")
    riccati.add_argument("--max-iter", type=int, default=None,
                         help="iteration cap override")
    riccati.add_argument("--blowup", type=float, default=None,
                         help="divergence threshold override")

    p = sub.add_parser("check-mss", parents=[common],
                       help="decide mean-square stability of the open loop")
    p.add_argument("problem")
    p.set_defaults(func=cmd_check_mss)

    p = sub.add_parser("solve-gare", parents=[common, riccati],
                       help="solve the noisy Riccati fixed point")
    p.add_argument("problem")
    p.set_defaults(func=cmd_solve_gare)

    p = sub.add_parser("margins", parents=[common],
                       help="compute open-loop robustness margins")
    p.add_argument("problem")
    p.add_argument("--method", required=True,
                   choices=[m.value for m in MarginMethod])
    p.set_defaults(func=cmd_margins)

    p = sub.add_parser("design", parents=[common, riccati],
                       help="synthesize a robust gain")
    p.add_argument("problem")
    p.add_argument("--algo", required=True, choices=["ce", "1", "2"])
    p.add_argument("--bisect-tol", type=float, default=None,
                   help="relative tolerance override of the design "
                        "bisections; the margin methods solve for their edge")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("verify-grid", parents=[common],
                       help="grid-check a certificate")
    p.add_argument("problem")
    p.add_argument("--cert", required=True,
                   help="JSON result of 'design' or 'margins'")
    p.add_argument("--samples", type=int, default=1000,
                   help="grid samples per direction")
    p.set_defaults(func=cmd_verify_grid)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo second-moment simulation")
    p.add_argument("problem")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--law", choices=["gaussian", "rademacher"],
                   default="gaussian")
    p.add_argument("--cert", default=None,
                   help="optional design result supplying the gain")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-pendulum", parents=[common],
                       help="rebuild the benchmark table for the built-in "
                            "inverted pendulum")
    p.add_argument("--samples", type=int, default=10_000,
                   help="grid samples per direction for the worst-case row")
    p.set_defaults(func=cmd_reproduce_pendulum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotMeanSquareStableError, UnstabilizableError) as exc:
        _emit({"status": "infeasible", "detail": str(exc)}, args.format)
        return EXIT_INFEASIBLE
    # before ValueError, which LinAlgError subclasses
    except (NumericalError, SingularPencilError, la.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # bad input: a file missing, unreadable or a directory (OSError), or a
    # malformed problem, document, option or grid (ValueError)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
