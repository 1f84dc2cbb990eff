"""The whole fixture catalog, pinned byte for byte.

One sha256 covers ``resolution.serialize`` of every fixture the families
admit at their limits, so a change to how the catalog builds its trees that
moves any divisor, generator, stratum or value in any tree fails here.
"""

import hashlib

from equizeta import catalog
from equizeta.resolution import serialize

# sha256 over serialize(catalog.get(name)) for name in every_fixture(), in order
PINNED = "4ebebde33364d6c4a63b1af96ff463670b9b5270be562583af631d5627750009"

FIXED = [
    "y4-x2_Z2",
    "x4-y2_Z2",
    "y4-x2_triv",
    "x4-y2_triv",
    "x2+y2_Z2",
    "-x2-y4_Z2",
    "A-boundary_f",
]


def every_fixture():
    out = list(FIXED)
    out += [f"x2k_Z2({k})" for k in (1, 2, 3, 4, 999999999999999999)]
    # each family up to its most divisors, 64: the mixed signs spend two
    # on the strict transform, and so do hk(k,-) and every even hk(k)
    out += [f"gk({k},{sx},{sy})" for k in range(3, 65) for sx in "+-" for sy in "+-"
            if sx == sy or k <= 62]
    out += ["gk(3,+)", "gk(3,-)", "gk(64,+)"]
    out += [f"hk({k},{sign})" for k in range(3, 130) for sign in "+-"
            if k <= 124 or k % 2 and (sign == "+" or k <= 125)]
    return out


def test_every_fixture_serializes_as_pinned():
    names = every_fixture()
    assert len(names) == 507
    digest = hashlib.sha256()
    for name in names:
        digest.update(serialize(catalog.get(name)))
    assert digest.hexdigest() == PINNED


def test_catalog_list_is_pinned(capsys):
    from equizeta.cli import main

    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == FIXED + [
        "x2k_Z2(k)",
        "gk(k,+,-)",
        "gk(k,-,+)",
        "gk(k,+,+)",
        "gk(k,-,-)",
        "hk(k,+)",
        "hk(k,-)",
    ]

