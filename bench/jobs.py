"""Seeded job lists for the benchmark workloads.

A job is one ``equizeta`` command: its argv, the exit code it must end with,
and a check spec that ``checks.verify`` reads.  Input files are generated
alongside and named in argv as ``FILE + name``; ``materialize`` swaps in the
real path once the files are written.

The seed picks everything that does not change the amount of work: mutant
contents, which side of a pair comes first, signs and sign actions,
hostile-input kinds, and job order.  The sizes that set the cost (family
parameters, series and compare orders, the oracle's exponent multisets and
group kinds, the pairing of cohomology shapes with p_min) form a fixed list,
so runs with different seeds measure the same amount of work and their
medians compare.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Dict, Tuple

from equizeta import catalog, cohomology, resolution
from equizeta.resolution import generated_group, subset_orbit

VARIANTS = ("naive", "plus", "minus")
FILE = "file:"

# Seed-cost caps; the ROADMAP's larger ladders wait for a faster engine.
LADDER_K = range(3, 15)
HOSTILE_PER_PASS = 8


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    expect_exit: int
    check: tuple


@dataclass(frozen=True)
class JobList:
    workload: str
    seed: int
    jobs: Tuple[Job, ...]
    files: Dict[str, bytes]


def compute_argv(ref, variant="naive", fmt="display", expand=None):
    """Options first, then '--', so names like '-x2-y4_Z2' stay positional."""
    opts = ("--variant", variant, "--format", fmt)
    if expand is not None:
        opts += ("--expand", str(expand))
    return ("compute", *opts, "--", ref)


def compare_argv(lhs, rhs, variant, order):
    return ("compare", "--variant", variant, "--order", str(order), "--", lhs, rhs)


def variants_of(res):
    """Variants whose stratum values are populated for this fixture."""
    out = ["naive"]
    if any(st.beta_plus is not None for st in res.strata):
        out.append("plus")
    if any(st.beta_minus is not None for st in res.strata):
        out.append("minus")
    return out


def _orbit_table(res):
    group = generated_group(res)
    return {
        st.divisors: sorted(tuple(sorted(s)) for s in subset_orbit(st.divisors, group))
        for st in res.strata
    }


def mutate(res, rng):
    """Shuffle the strata and swap each representative within its orbit."""
    orbits = _orbit_table(res)
    strata = list(res.strata)
    rng.shuffle(strata)
    new = [
        dataclasses.replace(st, divisors=frozenset(rng.choice(orbits[st.divisors])))
        for st in strata
    ]
    return dataclasses.replace(res, strata=tuple(new))


class _Draft:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}/{seed}")
        self.jobs = []
        self.files = {}

    def file(self, data: bytes) -> str:
        name = f"in{len(self.files):04d}.json"
        self.files[name] = data
        return FILE + name

    def add(self, argv, check, expect_exit=0):
        self.jobs.append(Job(tuple(argv), expect_exit, tuple(check)))

    def done(self) -> JobList:
        self.rng.shuffle(self.jobs)
        return JobList(self.workload, self.seed, tuple(self.jobs), self.files)


def fixture_variants():
    for name in catalog.sample_names():
        res = catalog.get(name)
        for v in variants_of(res):
            yield name, res, v


def ladder():
    for k in LADDER_K:
        for sx in "+-":
            for sy in "+-":
                yield f"gk({k},{sx},{sy})"
        for s in "+-":
            yield f"hk({k},{s})"


def _hostile(b: _Draft):
    rng = b.rng
    kind = rng.choice(("malformed", "unknown", "not_bijection", "duplicate_orbit"))
    fmt = rng.choice(("rational", "display"))
    if kind == "unknown":
        ref = rng.choice(
            (f"gk({rng.randint(0, 2)},+,-)", f"hk({rng.randint(0, 2)},-)",
             "x2k_Z2(0)", f"no_such_germ_{rng.randint(0, 999)}")
        )
        b.add(compute_argv(ref, fmt=fmt), ("error", kind), expect_exit=2)
        return
    name = rng.choice([
        n for n in catalog.sample_names()
        if catalog.get(n).group.generators and len(catalog.get(n).divisors) > 1
    ])
    obj = resolution.resolution_to_json(catalog.get(name))
    if kind == "malformed":
        text = json.dumps(obj)
        data = text[: rng.randrange(1, len(text) - 1)].encode()
        b.add(compute_argv(b.file(data), fmt=fmt), ("error", kind), expect_exit=3)
        return
    if kind == "not_bijection":
        gen = obj["group"]["generators"][0]
        i, j = rng.sample(range(len(gen)), 2)
        gen[i] = gen[j]
    else:
        stratum = rng.choice(obj["strata"])
        obj["strata"].append(dict(stratum))
    data = json.dumps(obj).encode()
    b.add(compute_argv(b.file(data), fmt=fmt), ("error", kind), expect_exit=2)


def closed_form(seed: int) -> JobList:
    b = _Draft("closed_form", seed)
    for name, res, v in fixture_variants():
        for fmt in ("rational", "display"):
            path = b.file(resolution.serialize(mutate(res, b.rng)))
            b.add(compute_argv(path, v, fmt), ("same_as_fixture", name, v, fmt))
    for name in ladder():
        for fmt in ("rational", "display"):
            b.add(compute_argv(name, "naive", fmt), ("fixture", name, "naive", fmt))
    for _ in range(HOSTILE_PER_PASS):
        _hostile(b)
    return b.done()


# (lhs, rhs, variant, order): pairs whose zeta functions differ.  hk(k,+) and
# hk(k,-) differ only for odd k; for even k the two trees coincide.
UNEQUAL_PAIRS = (
    ("y4-x2_Z2", "x4-y2_Z2", "naive", 8),
    ("y4-x2_Z2", "x4-y2_Z2", "naive", 16),
    ("gk(3,+,-)", "gk(3,+,+)", "naive", 12),
    ("gk(4,+,-)", "gk(4,+,+)", "naive", 16),
    ("gk(5,+,-)", "gk(5,+,+)", "naive", 8),
    ("gk(5,+,-)", "gk(5,+,+)", "naive", 12),
    ("gk(6,+,-)", "gk(6,+,+)", "naive", 12),
    ("hk(3,+)", "hk(3,-)", "naive", 16),
    ("hk(5,+)", "hk(5,-)", "naive", 8),
    ("hk(7,+)", "hk(7,-)", "naive", 12),
    ("hk(9,+)", "hk(9,-)", "naive", 8),
) + tuple(
    (f"x2k_Z2({k})", f"x2k_Z2({k + 1})", v, 8 * k)
    for k in range(1, 5)
    for v in ("naive", "plus")
)

# (fixture, variant, order) for compute --format series.  With the pairs above
# the costs near the 90th percentile are spread evenly, so job_ms.p90 does not
# sit on a gap between two cost groups.
SERIES = (
    ("y4-x2_Z2", "naive", 20),
    ("x4-y2_Z2", "naive", 24),
    ("y4-x2_triv", "naive", 12),
    ("x2+y2_Z2", "naive", 32),
    ("x2+y2_Z2", "plus", 32),
    ("-x2-y4_Z2", "naive", 24),
    ("-x2-y4_Z2", "naive", 28),
    ("-x2-y4_Z2", "minus", 32),
    ("A-boundary_f", "naive", 16),
    ("A-boundary_f", "naive", 20),
    ("gk(3,+,-)", "naive", 16),
    ("gk(5,+,-)", "naive", 12),
    ("gk(6,+,+)", "naive", 24),
    ("hk(5,-)", "naive", 16),
    ("hk(6,+)", "naive", 16),
    ("hk(6,+)", "naive", 24),
) + tuple((f"x2k_Z2({k})", v, 8 * k) for k in range(1, 5) for v in ("naive", "plus"))


# Orders of the equal pairs: each fixture variant is compared against one
# mutant at each of these.
EQUAL_ORDERS = (8, 20, 32)


def series_compare(seed: int) -> JobList:
    b = _Draft("series_compare", seed)
    rng = b.rng
    for name, res, v in fixture_variants():
        for order in EQUAL_ORDERS:
            pair = [name, b.file(resolution.serialize(mutate(res, rng)))]
            rng.shuffle(pair)
            b.add(compare_argv(*pair, v, order), ("compare_equal", v))
    for order in EQUAL_ORDERS:
        pair = ["y4-x2_triv", "x4-y2_triv"]
        rng.shuffle(pair)
        b.add(compare_argv(*pair, "naive", order), ("compare_equal", "naive"))
    for lhs, rhs, v, order in UNEQUAL_PAIRS:
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        b.add(compare_argv(lhs, rhs, v, order), ("compare_unequal", lhs, rhs, v, order),
              expect_exit=1)
    for name, v, order in SERIES:
        b.add(compute_argv(name, v, "series", order), ("series", name, v, order))
    return b.done()


ORACLE_MULTISETS = tuple(
    ms for d in (1, 2, 3) for ms in combinations_with_replacement(range(1, 5), d)
)
PIPELINES = {
    "sphere_free": (cohomology.sphere_free_pipeline, "sphere_free"),
    "sphere_fixed": (cohomology.sphere_fixed_pipeline, "sphere_with_fixed_point"),
    "circle_fixed": (cohomology.circle_fixed_pipeline, "circle_with_fixed_point"),
}
P_MINS = (-16, -32, -64, -128, -256)
MAX_WIDTH = 8


def _invariant_action(exps, rng):
    """Random sign action under which prod x_i^exps_i is invariant."""
    eps = [rng.choice((1, -1)) for _ in exps]
    odd = [i for i, n in enumerate(exps) if n % 2]
    if odd and sum(eps[i] == -1 for i in odd) % 2:
        eps[odd[0]] = -eps[odd[0]]
    return eps


def widen(spec: dict, m: int) -> dict:
    """A pipeline with every trivial module widened to dimension m."""
    out = json.loads(json.dumps(spec))
    for entry in out["homology"]:
        entry["module"] = cohomology.CyclicGModule.trivial(m).to_json()
    for entry in out.get("differentials", []):
        entry["rank"] *= m
    tail = out["tail"]
    tail["tail_dim"] *= m
    tail["explicit"] = {k: v * m for k, v in tail.get("explicit", {}).items()}
    return out


def oracle_cohomology(seed: int) -> JobList:
    b = _Draft("oracle_cohomology", seed)
    rng = b.rng
    for i, multiset in enumerate(ORACLE_MULTISETS):
        order = 8 + i % 9
        exps = list(multiset)
        rng.shuffle(exps)
        sign = rng.choice((1, -1))
        eps = None if i % 4 == 3 else _invariant_action(exps, rng)
        group = ["--trivial-group"] if eps is None else [f"--action={','.join(map(str, eps))}"]
        for v in VARIANTS:
            b.add(("oracle", f"--exponents={','.join(map(str, exps))}", f"--sign={sign:+d}",
                   *group, "--variant", v, "--order", str(order)),
                  ("oracle", tuple(exps), sign, None if eps is None else tuple(eps), v, order))
    shapes = [(shape, m) for shape in PIPELINES for m in range(1, MAX_WIDTH + 1)]
    p_mins = [P_MINS[i % len(P_MINS)] for i in range(len(shapes))]
    for (shape, m), p_min in zip(shapes, p_mins):
        spec = widen(PIPELINES[shape][0](p_min), m)
        path = b.file(json.dumps(spec).encode())
        b.add(("cohomology", path), ("cohomology", shape, m))
    return b.done()


GENERATORS = {
    "closed_form": closed_form,
    "series_compare": series_compare,
    "oracle_cohomology": oracle_cohomology,
}


def generate(workload: str, seed: int) -> JobList:
    return GENERATORS[workload](seed)


def materialize(joblist: JobList, workdir: Path):
    """Write the input files; return each job's argv with real paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in joblist.files.items():
        (workdir / name).write_bytes(data)
    return [
        [str(workdir / a[len(FILE):]) if a.startswith(FILE) else a for a in job.argv]
        for job in joblist.jobs
    ]
