"""Rewrite ``pinned.json``: digests of the fixture displays the checks use.

    python3 bench/pin.py

Run it only on code whose display output is known to be right; the pins are
what later code is held to.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import jobs  # noqa: E402


def main():
    keys = [(name, v) for name, _, v in jobs.fixture_variants()]
    keys += [(name, "naive") for name in jobs.ladder()]
    pins = {}
    for name, v in keys:
        code, out, err = harness.call_cli(jobs.compute_argv(name, v, "display"))
        if code != 0:
            raise SystemExit(f"{name} {v}: exit {code}: {err}")
        pins[checks.pin_key(name, v)] = checks.digest(out)
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} displays in {checks.PINS}")


if __name__ == "__main__":
    main()
