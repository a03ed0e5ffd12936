"""Record the reproduce report-body hashes into expected.json.

    python3 perfbench/record.py

Run it on the commit whose answers are the reference.  tower-dic3 is the
only claim that reads the seed; its hash is recorded for TOWER_SEEDS.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOWER_SEEDS = range(16)


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import cayleykit
    import cayleykit.cli
    import cayleykit.repro
    import workloads

    def sha(claim, seed):
        code, report = workloads.run_claim(cayleykit, claim, seed)
        if code != 0 or report["pass"] is not True:
            raise SystemExit(f"{claim} failed at seed {seed}")
        return workloads.body_sha256(report)

    claims = sorted(c for c in cayleykit.repro.CLAIMS if c != "tower-dic3")
    expected = {
        "claim_sha256": {c: sha(c, 0) for c in claims},
        "tower_dic3_sha256": {str(s): sha("tower-dic3", s)
                              for s in TOWER_SEEDS},
    }
    workloads.EXPECTED_FILE.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
