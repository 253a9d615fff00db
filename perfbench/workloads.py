"""The three benchmark workloads: ``design``, ``certify`` and ``verify``.

A workload is built from its seed during set-up. A pass runs its steps in
order, one caller in one process (a closed loop). Steps marked as
operations are timed one by one; an operation is one design, one margin
certificate, or one verify call. Every library call goes through a module
attribute looked up at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import multinoise as mn
import multinoise.cli
import multinoise.problems

import checks
import instances
from instances import PENDULUM_GARE
from tracing import gmean


@dataclass
class Step:
    """One timed call of a pass. ``is_op`` steps are operations; the others
    prepare data for the operations that follow them."""

    label: str
    run: Callable[[], object]
    is_op: bool = True


def _design(plant, algo: int, opts: mn.DesignOptions) -> mn.DesignResult:
    fn = mn.design_algorithm_1 if algo == 1 else mn.design_algorithm_2
    return fn(plant.system, plant.costs, plant.a_mats, plant.b_mats,
              plant.structure, opts)


def check_design(plant, algo: int, res: mn.DesignResult) -> str | None:
    """Re-prove a design's certificate from its stored data and the
    returned scalings, and require a stable nominal closed loop."""
    if not res.diagnostics.rho_closed_loop < 1.0:
        return f"nominal closed loop unstable ({res.diagnostics.rho_closed_loop})"
    cert = res.certificate
    if algo == 1:
        # the certificate holds for the variances at the frontier z*
        st, z = plant.structure, res.z_star
        noise = mn.NoiseModel(
            a_dirs=[(D, float(t * z)) for D, t in zip(plant.a_mats, st.theta)],
            b_dirs=[(D, float(f * z)) for D, f in zip(plant.b_mats, st.phi)],
        )
        A_cl, dirs = mn.closed_loop_substitution(plant.system, noise, res.K)
        return checks.shared_form(A_cl, dirs, cert)
    # design plants carry zero nominal noise; the box fixes the variances
    A_cl, dirs = mn.closed_loop_substitution(plant.system, plant.noise, res.K)
    return checks.aux_system(A_cl, dirs, cert.box)


class Design:
    """The in-process ``reproduce-pendulum``, then both algorithms on one
    seeded plant per n in {2, 3, 4, 6, 8} with the pendulum's stopping
    rule, then algorithm 1 at library defaults on the input-noise instance.
    Riccati feasibility probes dominate."""

    name = "design"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.plants = instances.design_plants(rng)
        opts = mn.DesignOptions(gare=PENDULUM_GARE)
        self.cases = {}
        self.steps = [Step("reproduce-pendulum", self._reproduce)]
        for plant in self.plants:
            for algo in (1, 2):
                self._add(f"{plant.label}-algo{algo}", plant, algo, opts)
        self._add("input-noise-algo1-defaults", instances.input_noise_plant(),
                  1, mn.DesignOptions())

    def _add(self, label, plant, algo, opts):
        self.cases[label] = (plant, algo)
        self.steps.append(Step(label, partial(_design, plant, algo, opts)))

    @staticmethod
    def _reproduce():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = multinoise.cli.main(["reproduce-pendulum", "--format",
                                        "json"])
        return code, out.getvalue()

    def warm_up(self):
        pendulum = mn.inverted_pendulum()
        mn.certainty_equivalent(pendulum.system, pendulum.costs)

    def check(self, label, out) -> str | None:
        if label == "reproduce-pendulum":
            code, text = out
            if code != 0:
                return f"exit code {code}"
            return checks.pendulum_table(json.loads(text))
        return check_design(*self.cases[label], out)

    def extra(self, outputs, times) -> list[tuple[str, float, str]]:
        return []


METHODS = ("shared-uni", "shared-bi", "aux", "cons-lin", "cons-simple")


class Certify:
    """99 small seeded plants (n in {2, 3, 4}, p in {1, 2, 3}) and a
    size-sweep tail at n = 8 and 16: a cold Riccati solve far from the
    frontier, the closed loop, then every margin method. Margins and
    stability dominate; design and verify do no work."""

    name = "certify"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.plants = instances.certify_plants(rng)
        self.loops: dict[int, tuple] = {}
        self.steps = []
        self.index = {}  # step label -> plant index
        for i, plant in enumerate(self.plants):
            calls = [("gare", partial(self._close, i))]
            calls += [(m, partial(self._margins, i, m)) for m in METHODS]
            if len(plant.a_mats) == 1:
                calls.append(("single", partial(self._single, i)))
            for name, run in calls:
                label = f"{i}-{plant.label}-{name}"
                self.index[label] = i
                self.steps.append(Step(label, run, is_op=name != "gare"))

    def _close(self, i):
        self.loops.pop(i, None)
        plant = self.plants[i]
        sol = mn.solve_gare(plant.system, plant.noise, plant.costs)
        if not sol.converged:
            raise mn.UnstabilizableError("value iteration did not converge")
        self.loops[i] = mn.closed_loop_substitution(plant.system, plant.noise,
                                                    sol.K)
        return sol

    def _margins(self, i, method):
        A_cl, dirs = self.loops[i]
        return mn.compute_margins(method, A_cl, dirs,
                                  self.plants[i].structure)

    def _single(self, i):
        A_cl, ((D, alpha),) = self.loops[i]
        return mn.single_direction_margin(A_cl, D, alpha)

    def warm_up(self):
        self._close(0)
        self._margins(0, "shared-uni")

    def check(self, label, out) -> str | None:
        A_cl, dirs = self.loops[self.index[label]]
        if label.endswith("-single"):
            eta, zeta = out
            (D, alpha), = dirs
            eye = np.eye(A_cl.shape[0])
            P = mn.solve_gle(A_cl, dirs, eye).P
            return checks.single_direction(A_cl, D, alpha, eye, P, zeta, eta)
        return checks.certificate(A_cl, dirs, out)

    def extra(self, outputs, times) -> list[tuple[str, float, str]]:
        ys = [out.y_star for label, out in outputs.items()
              if isinstance(out, mn.MarginCertificate)]
        return [("margin_gmean", gmean(ys), "1")]


#: Grid sizes and Monte Carlo budget of the verify workload: 10^6 points on
#: the pendulum, and 10^6 split over AUX_CERTIFICATES 4 x 4 certificates, so
#: that no single seeded matrix sets the eigen-sweep's cost.
PENDULUM_GRID = 1_000_000
AUX_CERTIFICATES, AUX_GRID_PER_DIR = 4, 500
MC_TRIALS, MC_HORIZON = 10_000, 200


class Verify:
    """Certificates built in set-up, then grid sweeps of 10^6 points on the
    pendulum algorithm-1 certificate (one direction) and of 10^6 points over
    four seeded 4 x 4 two-direction auxiliary-system certificates, then
    Monte Carlo second moments of the first 4 x 4 closed loop under both
    noise laws. No Riccati or bisection work."""

    name = "verify"

    def __init__(self, seed: int):
        pendulum = mn.inverted_pendulum()
        p_mats = [D for D, _ in pendulum.noise.a_dirs]
        res = mn.design_algorithm_1(
            pendulum.system, pendulum.costs, p_mats, [], pendulum.structure,
            mn.DesignOptions(gare=pendulum.gare_options,
                             bisect=pendulum.bisect_options))
        self.pendulum = (instances.Plant(
            pendulum.system, pendulum.costs, p_mats, [], pendulum.structure,
            pendulum.noise), 1, res)
        to_dict = multinoise.problems.certificate_to_dict
        # label -> (closed loop, stored certificate, samples per direction)
        self.grids = {"grid-pendulum-algo1": (
            mn.closed_loop_substitution(pendulum.system, pendulum.noise,
                                        res.K),
            to_dict(res.certificate), PENDULUM_GRID)}
        rng = np.random.default_rng(seed)
        self.plants = [instances.verify_plant(rng)
                       for _ in range(AUX_CERTIFICATES)]
        for k, plant in enumerate(self.plants):
            sol = mn.solve_gare(plant.system, plant.noise, plant.costs)
            loop = mn.closed_loop_substitution(plant.system, plant.noise,
                                               sol.K)
            cert = mn.aux_system_margins(*loop, plant.structure)
            self.grids[f"grid-4x4-aux{k}"] = (loop, to_dict(cert),
                                              AUX_GRID_PER_DIR)
        self.loop = self.grids["grid-4x4-aux0"][0]
        self.mc = {law: mn.MonteCarloConfig(horizon=MC_HORIZON,
                                            trials=MC_TRIALS, seed=seed,
                                            noise_law=law)
                   for law in ("gaussian", "rademacher")}
        self.steps = [Step(label, partial(self._grid, label))
                      for label in self.grids]
        self.steps += [Step(f"simulate-{law}", partial(self._simulate, law))
                       for law in self.mc]

    def _grid(self, label, samples=None):
        (A_cl, dirs), doc, per_dir = self.grids[label]
        cert = multinoise.problems.certificate_from_dict(doc)
        return mn.grid_verify(A_cl, dirs, cert.box, samples or per_dir)

    def _simulate(self, law):
        A_cl, dirs = self.loop
        return mn.simulate_second_moment(A_cl, dirs, self.mc[law],
                                         np.eye(A_cl.shape[0]))

    def warm_up(self):
        self._grid("grid-4x4-aux0", samples=10)
        A_cl, dirs = self.loop
        mn.simulate_second_moment(
            A_cl, dirs, mn.MonteCarloConfig(horizon=5, trials=10, seed=0),
            np.eye(A_cl.shape[0]))

    def check(self, label, out) -> str | None:
        if label.startswith("simulate-"):
            A_cl, dirs = self.loop
            return checks.moments(A_cl, dirs, out,
                                  self.mc[label.split("-", 1)[1]],
                                  np.eye(A_cl.shape[0]))
        (A_cl, dirs), doc, per_dir = self.grids[label]
        want = per_dir ** len(dirs)
        if out.samples != want:
            return f"swept {out.samples} points, expected {want}"
        if not out.all_stable:
            return f"grid point has spectral radius {out.worst_rho:.6g} >= 1"
        if label == "grid-pendulum-algo1":
            return check_design(*self.pendulum)
        cert = multinoise.problems.certificate_from_dict(doc)
        return checks.aux_system(A_cl, dirs, cert.box)

    def extra(self, outputs, times) -> list[tuple[str, float, str]]:
        points = sum(out.samples for label, out in outputs.items()
                     if label.startswith("grid-"))
        grid_s = sum(t for label, t in times.items()
                     if label.startswith("grid-"))
        sim_s = sum(t for label, t in times.items()
                    if label.startswith("simulate-"))
        steps = MC_TRIALS * MC_HORIZON * len(self.mc)
        return [("grid_pts_per_s", points / grid_s, "1/s"),
                ("sim_steps_per_s", steps / sim_s, "1/s")]


WORKLOADS = {w.name: w for w in (Design, Certify, Verify)}
