"""The whole fixture catalog, pinned byte for byte.

One sha256 covers ``resolution.serialize`` of every fixture the families
admit at their limits, so a change to how the catalog builds its trees that
moves any divisor, generator, stratum or value in any tree fails here.
"""

import hashlib

from equizeta import catalog
from equizeta.resolution import serialize

# sha256 over serialize(catalog.get(name)) for name in every_fixture(), in order
PINNED = "2f3fca128752f8e715328880c828e188b59334edaee69c49b5fc65f09b3fd318"

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
    out += [f"gk({k},{sx},{sy})" for k in range(3, 65) for sx in "+-" for sy in "+-"]
    out += [f"gk({k},{sy})" for k in (3, 64) for sy in "+-"]
    out += [f"hk({k},{sign})" for k in range(3, 130) for sign in "+-"]
    return out


def test_every_fixture_serializes_as_pinned():
    names = every_fixture()
    assert len(names) == 518
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

