"""Seeded input generator: a seed in, YAML run descriptions out.

Every instance is a plain ``mfgplan solve`` config, so the program under
test sees only the generated YAML.  The same seed always gives the same
documents.  Different seeds give different inputs of about the same
difficulty, so that a run-to-run spread measures the program, not the draw.

Seeds map onto a fixed pool of input sets, because the correctness gate
compares every output with reference values recorded for each input set
(``references.jsonl``).  A pass over a workload solves its instance list for
``SETS_PER_PASS`` consecutive pool members starting at ``seed % POOL``.  The
held-out seed selects input sets of its own instead, which were not used
while tuning the benchmark; keep it for confirming a claimed gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

POOL = 16
HELD_OUT_SEED = 1009

WORKLOADS = ("plan-ladder", "plan-power", "congestion", "hughes")

# one independent random stream per workload
_STREAM = {name: k for k, name in enumerate(WORKLOADS)}

# instance sizes; "tiny" only serves the harness self-test
SIZES = {
    "full": {
        "plan-ladder": ((33, 32), (65, 64), (129, 128), (257, 256)),
        "plan-power": ((65, 64), (129, 128)),
        "congestion": ((0.5, 13, 24), (1.5, 9, 16)),
        "hughes": (241, 1000),  # window nodes, point queries
    },
    "tiny": {
        "plan-ladder": ((9, 8), (17, 16)),
        "plan-power": ((9, 8),),
        "congestion": ((0.5, 7, 8), (1.5, 7, 8)),
        "hughes": (21, 20),
    },
}
# The solvers' iteration counts jump between nearby inputs (26 to 33
# iterations on the order-1 129x128 plan-power rung, 12 to 30 on the stalling
# order-1 257x256 plan-ladder rung), so one input set is a noisy sample of a
# planning workload's cost; a pass averages several.  The counts make one
# pass of each planning workload, and of congestion, take about 19 s on two
# cores, which fills one 20 s run: steadiness comes from measured seconds,
# and more input sets beat repeating the same ones.
SETS_PER_PASS = {"plan-ladder": 3, "plan-power": 5, "congestion": 1, "hughes": 1}
HUGHES_TIMES = (0.0, 0.2, 0.4, 0.6, 0.8)
PHASE_JITTER = 0.1


@dataclass
class Instance:
    """One solve: its YAML document and what the gate needs.

    ``key`` names the instance within its input set (the reference key);
    ``name`` is unique within a pass.
    """

    key: str
    input_set: int
    doc: dict
    meta: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"s{self.input_set}-{self.key}"


@dataclass
class Query:
    """One ``hopf_lax(t, x)`` call against a window instance's spec.

    ``x`` is node ``x_index`` of that window and ``t`` is its time row
    ``t_index``, so the window solve's own value is the expected answer.
    """

    window: str
    t_index: int
    x_index: int


@dataclass
class Workload:
    name: str
    input_sets: list[int]
    instances: list[Instance]
    queries: list[Query] = field(default_factory=list)


def input_sets(name: str, seed: int) -> list[int]:
    """The input sets a command-line seed selects for one workload."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    k = SETS_PER_PASS[name]
    if seed == HELD_OUT_SEED:
        return [HELD_OUT_SEED + j for j in range(k)]
    return [(seed + j) % POOL for j in range(k)]


def _marginal_modes(name: str, input_set: int, which: int) -> tuple[list[float], list[float]]:
    """Amplitudes and phases of modes k = 1, 2, 3 for marginal ``which``.

    A base shape is drawn once per workload and each input set jitters it: amplitudes stay within [0.04, 0.05] and phases move by at
    most PHASE_JITTER radians.  Phases drawn afresh for every seed changed
    the solver's work a lot (25 to 56 iterations on the order-1 129x128
    ``plan-power`` rung, against 26 to 33 with the jitter), which would
    swamp the timing differences the benchmark exists to show.
    Amplitudes near the 0.05 cap keep every input set of ``plan-ladder``
    in the regime where the order-1 257x256 rung stalls at the rounding
    floor, so that known defect shows on every seed rather than on some.
    """
    base = np.random.default_rng([0, _STREAM[name], which])
    jitter = np.random.default_rng([input_set, _STREAM[name], which, 1])
    amps = base.uniform(0.04, 0.05, 3)
    phases = base.uniform(0.0, 2.0 * np.pi, 3)
    amps = np.clip(amps + jitter.uniform(-0.002, 0.002, 3), 0.04, 0.05)
    phases = phases + jitter.uniform(-PHASE_JITTER, PHASE_JITTER, 3)
    return amps.tolist(), phases.tolist()


def _samples(modes, nx: int) -> list[float]:
    """``1 + sum_k a_k sin(2 pi k x + theta_k)`` on the periodic lattice.

    Full periods sum to zero on the lattice, so the rectangle-rule mass is
    one up to rounding.
    """
    amps, phases = modes
    x = np.arange(nx) / nx
    m = np.ones(nx)
    for k, (a, th) in enumerate(zip(amps, phases), start=1):
        m += a * np.sin(2.0 * np.pi * k * x + th)
    return [float(v) for v in m]


def _planning_doc(nt, nx, order, m0, mT, model: dict) -> dict:
    return {
        "schema_version": 1,
        "mode": "planning",
        "seed": 0,
        "grid": {"nt": nt, "nx": nx, "horizon": 1.0},
        "planning": {
            **model,
            "m0": {"type": "samples", "values": _samples(m0, nx)},
            "mT": {"type": "samples", "values": _samples(mT, nx)},
            "order": order,
            "tol": 1.0e-8,
        },
    }


def _planning(name: str, input_set: int, grids, model: dict) -> list[Instance]:
    m0, mT = _marginal_modes(name, input_set, 0), _marginal_modes(name, input_set, 1)
    return [
        Instance(f"o{order}-{nt}x{nx}", input_set,
                 _planning_doc(nt, nx, order, m0, mT, model), {"tol": 1.0e-8})
        for order in (0, 1)
        for nt, nx in grids
    ]


def plan_ladder(input_set: int, size: str):
    model = {
        "hamiltonian": "quadratic",
        "potential": {"type": "cosine", "amplitude": 0.2, "frequency": 1},
    }
    return _planning("plan-ladder", input_set, SIZES[size]["plan-ladder"], model), []


def plan_power(input_set: int, size: str):
    model = {
        "hamiltonian": {"type": "power", "alpha": 1.5},
        "coupling": {"type": "power", "gamma": 2.5},
        "potential": {"type": "cosine", "amplitude": 0.2, "frequency": 1},
    }
    return _planning("plan-power", input_set, SIZES[size]["plan-power"], model), []


def congestion(input_set: int, size: str):
    instances = []
    for k, (alpha, nt, nx) in enumerate(SIZES[size]["congestion"]):
        m0 = _marginal_modes("congestion", input_set, 2 * k)
        mT = _marginal_modes("congestion", input_set, 2 * k + 1)
        doc = {
            "schema_version": 1,
            "mode": "congestion",
            "seed": 0,
            "grid": {"nt": nt, "nx": nx, "horizon": 1.0},
            "congestion": {
                "alpha": alpha,
                "mu": 1.0,
                "m0": {"type": "samples", "values": _samples(m0, nx)},
                "mT": {"type": "samples", "values": _samples(mT, nx)},
                "tol_fp": 1.0e-6,
            },
        }
        instances.append(Instance(f"a{alpha}-{nt}x{nx}", input_set, doc, {"tol_fp": 1.0e-6}))
    return instances, []


def hughes(input_set: int, size: str):
    rng = np.random.default_rng([input_set, _STREAM["hughes"]])
    nx, n_queries = SIZES[size]["hughes"]
    windows = (
        # name, speed, branch, (lo, hi) ranges: increasing ramps for the
        # linear law, decreasing ones for the congestion law
        ("linear-inc", "linear", "increasing", (0.05, 0.25), (0.55, 0.8)),
        ("congestion-dec", {"type": "congestion", "beta": 0.25}, "decreasing",
         (0.6, 0.9), (0.15, 0.35)),
    )
    instances = []
    for name, speed, branch, lo_range, hi_range in windows:
        lo, hi = float(rng.uniform(*lo_range)), float(rng.uniform(*hi_range))
        steepness = float(rng.uniform(1.0, 3.0))
        doc = {
            "schema_version": 1,
            "mode": "hughes",
            "seed": 0,
            "hughes": {
                "x_min": -3.0,
                "x_max": 3.0,
                "nx": nx,
                "times": list(HUGHES_TIMES),
                "branch": branch,
                "speed": speed,
                "rho0": {"type": "ramp", "lo": lo, "hi": hi, "steepness": steepness},
            },
        }
        instances.append(Instance(name, input_set, doc,
                                  {"rho_lo": min(lo, hi), "rho_hi": max(lo, hi)}))
    # queries sit on window nodes at positive window times
    which = rng.integers(0, len(instances), n_queries)
    rows = rng.integers(1, len(HUGHES_TIMES), n_queries)
    cols = rng.integers(0, nx, n_queries)
    queries = [
        Query(instances[w].name, int(i), int(j)) for w, i, j in zip(which, rows, cols)
    ]
    return instances, queries


GENERATORS = {
    "plan-ladder": plan_ladder,
    "plan-power": plan_power,
    "congestion": congestion,
    "hughes": hughes,
}


def build(name: str, input_set: int, size: str = "full"):
    """Instances and point queries of one input set."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return GENERATORS[name](input_set, size)


def generate(name: str, seed: int, size: str = "full") -> Workload:
    """Everything one pass over the workload runs, for a command-line seed."""
    sets = input_sets(name, seed)
    workload = Workload(name, sets, [])
    for input_set in sets:
        instances, queries = build(name, input_set, size)
        workload.instances += instances
        workload.queries += queries
    return workload


def dump_yaml(doc: dict) -> str:
    """YAML text of a run description; floats round-trip exactly."""
    return yaml.safe_dump(doc, default_flow_style=None, sort_keys=False)
