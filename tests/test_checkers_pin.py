"""The two independent checkers' output, pinned byte for byte.

One sha256 covers the exit code and stdout of a fixed sweep of ``oracle``
commands (exponent sets, signs, every sign action and the trivial group, all
three variants, orders 0 to 16) and of ``cohomology`` commands (the three
built-in pipelines by name, and each shape as JSON at p_min -16 to -256 with
its trivial modules widened).  A change to how either checker builds its
results that moves any printed byte or exit code fails here.
"""

import hashlib
import itertools
import json

from test_cli import call

from equizeta import cohomology

# sha256 over each call's argv, exit code and stdout, in order
PINNED = "4de0d933b363a10be6b2ce2ace561c3050e64c4acae703987826b6a8809af3cf"

EXPONENTS = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 4), (2, 1, 1), (1, 1, 4), (0, 2, 3)]
SHAPES = {
    "sphere_free": cohomology.sphere_free_pipeline,
    "sphere_fixed": cohomology.sphere_fixed_pipeline,
    "circle_fixed": cohomology.circle_fixed_pipeline,
}
P_MINS = (-16, -32, -64, -128, -256)
WIDTHS = (1, 2, 5, 8)


def groups(d):
    """--trivial-group and every sign action of length d, invariant or not."""
    yield ("--trivial-group",)
    for eps in itertools.product((1, -1), repeat=d):
        yield ("--action", ",".join(map(str, eps)))


def oracle_argvs():
    for exps in EXPONENTS:
        for sign, group, variant in itertools.product(
            ("+1", "-1"), groups(len(exps)), ("naive", "plus", "minus")
        ):
            for order in range(17):
                yield ("oracle", "--exponents", ",".join(map(str, exps)), "--sign", sign,
                       *group, "--variant", variant, "--order", str(order))


def widened(spec, m):
    """The pipeline with every module widened to the trivial module of
    dimension m, and its ranks and tail dimensions scaled by m."""
    out = json.loads(json.dumps(spec))
    for entry in out["homology"]:
        entry["module"] = cohomology.CyclicGModule.trivial(m).to_json()
    for entry in out["differentials"]:
        entry["rank"] *= m
    tail = out["tail"]
    tail["tail_dim"] *= m
    tail["explicit"] = {k: v * m for k, v in tail["explicit"].items()}
    return out


def cohomology_calls():
    """(argv, stdin) for each built-in name and each widened JSON spec."""
    for name in SHAPES:
        yield ("cohomology", name), ""
    for build, p_min, m in itertools.product(SHAPES.values(), P_MINS, WIDTHS):
        yield ("cohomology", "-"), json.dumps(widened(build(p_min), m))


def test_checker_output_is_pinned():
    calls = [(argv, "") for argv in oracle_argvs()] + list(cohomology_calls())
    assert len(calls) == 5712 + 63
    digest = hashlib.sha256()
    for argv, stdin in calls:
        code, out, _ = call(argv, stdin)
        digest.update(f"{' '.join(argv)}\n{code}\n".encode())
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED
