"""Record the output digest of every input any seed can draw.

    python3 perfbench/record_fingerprints.py

Run from the root of a checkout.  Writes perfbench/data/fingerprints.json,
which the benchmark compares each run's outputs against and reports as
``outputs_changed``.  Every output is checked before it is recorded.  Run it
again only in a change that says why an output bit changed.
"""

import json
import shutil
import sys

from run import HERE, WORKLOAD_NAMES, import_library, scratch_dir


def main() -> int:
    import_library()
    from workloads import WORKLOADS, digest
    out = {}
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name]()
        tmp = scratch_dir("record")
        try:
            wl.universe_setup(tmp)
            table = {}
            for idx, item in enumerate(wl.pool):
                rec = wl.collect(item, wl.run(item))
                probs = wl.check(item, rec, dense=False)
                if probs:
                    print("%s input %d: %s" % (name, idx, "; ".join(probs)),
                          file=sys.stderr)
                    return 1
                table[wl.key(item)] = digest(wl.canonical(item, rec))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        out[name] = dict(sorted(table.items()))
        print("%s: %d inputs" % (name, len(table)))
    path = HERE / "data" / "fingerprints.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
