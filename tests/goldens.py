"""The golden runs under tests/data and the replay rule each set keeps;
pytest does not collect this module.  A set's pins are the files
``v<k>_<name>.csv`` (and ``.json``), found by globbing, and its newest pin is
the one at ``harness.FORMAT_VERSION``, so a format bump that moves no bits
is that constant and a copy of each newest pin under the new version.

Each pin of a trajectory set replays (``traj --config``) to the newest pin
byte for byte, CSV and sidecar, and against the pin itself its brackets nest
up to ``slack`` quad_tol, its columns without a bracket keep their bytes but
``band_prior_exponent``, its sidecar differs only in version, retired keys
and config hash, and from version ``same_since`` on its CSV keeps its bytes.
A replicate set runs ``command`` at each of ``jobs`` and checks the summary
the same way against every pin.  A set with ``same_since`` None has no
newest pin and skips the byte checks.

    python tests/goldens.py replays

prints one line per replay CI makes: the set's name, its newest pin and the
``posterior-lab`` arguments (a trajectory set replays its previous pin);

    python tests/goldens.py record NAME GOT

compares GOT with the newest committed ``ORACLE_NAME_v<k>.json``, every field
of every line but the run time, and exits 1 if any differs.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import NamedTuple, Optional

from posterior_lab.harness import FORMAT_VERSION

TESTS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TESTS, "data")

# v1 and v3 predate the Gauss-Kronrod tilt quadrature; their tests are their own
BESPOKE = ("v1_uniform_n60_seed3", "v3_uniform_n60_seed3")


class Golden(NamedTuple):
    name: str
    model: str
    slack: float
    same_since: Optional[int]
    command: str = ""
    jobs: tuple = ()

    def pin(self, version: int) -> str:
        return os.path.join(DATA, f"v{version}_{self.name}")

    def versions(self) -> list:
        """The versions of the set's pins, oldest first."""
        pattern = re.compile(rf"v(\d+)_{re.escape(self.name)}\.csv")
        found = (pattern.fullmatch(f) for f in os.listdir(DATA))
        return sorted(int(m[1]) for m in found
                      if m and m[0][:-4] not in BESPOKE)


# v6 summed the step head in closed form, and no Barron bit moved after it;
# v8, v9 and v10 moved the cosine bits; the cosine run at n = 40 has no newest pin
GOLDENS = (
    Golden("uniform_n60_seed3", "barron", 0.0, 6),
    Golden("uniform_n8000_seed65", "barron", 0.0, 6),
    Golden("gauss_tiltband_n300_seed9", "barron", 0.0, 6),
    Golden("decimal_n3_seed1", "barron", 0.0, 6),
    Golden("step_n300_seed4", "barron", 0.0, 6),
    Golden("cosine_n640_seed3", "cosine", 2.0, 10),
    Golden("cosine_n40_seed1", "cosine", 2.0, None),
    Golden("replicate_uniform_n300_seeds1-4", "barron", 0.0, 6,
           "replicate --truth uniform --n-max 300 --seeds 1..4", (2,)),
    Golden("replicate_cosine_n300_seeds1-3", "cosine", 2.0, 10,
           "replicate --model cosine --grid-ratio 2.0 --n-max 300 --seeds 1..3", (1, 2)),
)


def record_lines(path: str) -> list:
    with open(path) as fh:
        return [json.dumps({k: v for k, v in json.loads(line).items() if k != "seconds"},
                           sort_keys=True) for line in fh]


def main(argv) -> int:
    if argv[1:2] == ["replays"]:
        for g in GOLDENS:
            if g.same_since is None:
                continue
            if g.command:
                print(g.name, g.pin(FORMAT_VERSION), g.command)
            else:
                previous = [v for v in g.versions() if v < FORMAT_VERSION][-1]
                print(g.name, g.pin(FORMAT_VERSION), "traj --config", g.pin(previous) + ".json")
        return 0
    if argv[1:2] == ["record"] and len(argv) == 4:
        root = os.path.dirname(TESTS)
        pattern = re.compile(rf"ORACLE_{re.escape(argv[2])}_v(\d+)\.json")
        want = max((f for f in os.listdir(root) if pattern.fullmatch(f)),
                   key=lambda f: int(pattern.fullmatch(f)[1]))
        got, want_lines = record_lines(argv[3]), record_lines(os.path.join(root, want))
        bad = [i + 1 for i, (a, b) in enumerate(zip(got, want_lines)) if a != b]
        print(f"{argv[3]}: {len(got)} lines, {want}: {len(want_lines)}; lines that differ: {bad}")
        return int(bool(bad) or len(got) != len(want_lines))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
