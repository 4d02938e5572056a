"""The golden runs under tests/data and the replay rule each set keeps;
pytest does not collect this module.  A set's pins are the files
``v<k>_<name>.csv`` (and ``.json``), found by globbing, and its newest pin is
its newest file at or below ``harness.FORMAT_VERSION``.  A set gains a pin
only at a format bump that moves its bytes, so no pin is a byte copy of the
one before it, and a bump that moves no bits is that constant alone.

Every replay of a set, from the sidecar of each older trajectory pin
(``traj --config``) or by a replicate set's ``command`` at each of ``jobs``,
equals the newest pin: its CSV and a replicate summary byte for byte, a
trajectory sidecar in every field but ``version`` (``Golden.differs``).
Against each older pin its brackets nest up to ``Golden.slack``, its columns
without a bracket keep their bytes but ``band_prior_exponent``, and a
trajectory sidecar differs only in version, retired keys and config hash.

    python tests/goldens.py replays

prints one line per replay CI makes: the set's name and the
``posterior-lab`` arguments (a trajectory set replays the pin before its
newest);

    python tests/goldens.py check NAME OUT

checks the replay written at the prefix OUT (``OUT.csv``, ``OUT.json``)
against set NAME's newest pin and exits 1 if any file differs;

    python tests/goldens.py record NAME GOT

compares GOT with the newest committed ``ORACLE_NAME_v<k>.json``, every field
of every line but the run time, and exits 1 if any differs.  Any other call,
a NAME that no set or record has among them, prints this text and exits 2.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import NamedTuple

from posterior_lab.harness import FORMAT_VERSION

TESTS = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(TESTS, "data")

# v1 and v3 predate the Gauss-Kronrod tilt quadrature; their tests are their own
BESPOKE = ("v1_uniform_n60_seed3", "v3_uniform_n60_seed3")


class Golden(NamedTuple):
    name: str
    model: str
    command: str = ""
    jobs: tuple = ()

    def pin(self, version: int) -> str:
        return os.path.join(DATA, f"v{version}_{self.name}")

    def versions(self) -> list:
        """The versions of the set's pins up to ``FORMAT_VERSION``, oldest
        first."""
        pattern = re.compile(rf"v(\d+)_{re.escape(self.name)}\.csv")
        found = (pattern.fullmatch(f) for f in os.listdir(DATA))
        return sorted(int(m[1]) for m in found
                      if m and m[0][:-4] not in BESPOKE and int(m[1]) <= FORMAT_VERSION)

    def newest(self) -> int:
        return self.versions()[-1]

    def slack(self, quad_tol: float) -> float:
        """How far a replayed bracket may reach past a stored one, relative
        for a mass and absolute for ln evidence: a Barron bracket moves by
        rounding alone, a cosine one by up to its quadrature's error."""
        return 2.0 * quad_tol if self.model == "cosine" else 1e-12

    def differs(self, out: str) -> list:
        """The files of the replay written at the prefix ``out`` that differ
        from the newest pin: the CSV and a replicate summary byte for byte, a
        trajectory sidecar in any field but ``version``."""
        want = self.pin(self.newest())
        read = {".csv": read_bytes, ".json": read_bytes if self.command else sidecar_fields}
        return [out + ext for ext, get in read.items() if get(want + ext) != get(out + ext)]


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def sidecar_fields(path: str) -> dict:
    """A sidecar's or summary's fields but ``version``."""
    with open(path) as fh:
        side = json.load(fh)
    side.pop("version", None)
    return side


GOLDENS = (
    Golden("uniform_n60_seed3", "barron"),
    Golden("uniform_n8000_seed65", "barron"),
    Golden("gauss_tiltband_n300_seed9", "barron"),
    Golden("decimal_n3_seed1", "barron"),
    Golden("step_n300_seed4", "barron"),
    Golden("cosine_n640_seed3", "cosine"),
    Golden("cosine_n40_seed1", "cosine"),
    Golden("replicate_uniform_n300_seeds1-4", "barron",
           "replicate --truth uniform --n-max 300 --seeds 1..4", (2,)),
    Golden("replicate_cosine_n300_seeds1-3", "cosine",
           "replicate --model cosine --grid-ratio 2.0 --n-max 300 --seeds 1..3", (1, 2)),
)


def record_lines(path: str) -> list:
    with open(path) as fh:
        return [json.dumps({k: v for k, v in json.loads(line).items() if k != "seconds"},
                           sort_keys=True) for line in fh]


def main(argv) -> int:
    if argv[1:2] == ["replays"]:
        for g in GOLDENS:
            if g.command:
                print(g.name, g.command)
            else:
                print(g.name, "traj --config", g.pin(g.versions()[-2]) + ".json")
        return 0
    if argv[1:2] == ["check"] and len(argv) == 4:
        golden = next((g for g in GOLDENS if g.name == argv[2]), None)
        if golden:
            bad = golden.differs(argv[3])
            print(f"{argv[3]}: files that differ from {argv[2]}'s newest pin: {bad}")
            return int(bool(bad))
    if argv[1:2] == ["record"] and len(argv) == 4:
        root = os.path.dirname(TESTS)
        pattern = re.compile(rf"ORACLE_{re.escape(argv[2])}_v(\d+)\.json")
        want = max((f for f in os.listdir(root) if pattern.fullmatch(f)),
                   key=lambda f: int(pattern.fullmatch(f)[1]), default=None)
        if want:
            got, want_lines = record_lines(argv[3]), record_lines(os.path.join(root, want))
            bad = [i + 1 for i, (a, b) in enumerate(zip(got, want_lines)) if a != b]
            print(f"{argv[3]}: {len(got)} lines, {want}: {len(want_lines)}; "
                  f"lines that differ: {bad}")
            return int(bool(bad) or len(got) != len(want_lines))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
