"""Regenerate the stored reference outputs under reference/.

    python3 benchmarks/make_reference.py [workload ...]

Runs every operation of each workload's pool once, at full and tiny shapes,
and stores what the checks compare against.  Run it only when a change is
meant to alter the outputs, and say so in the change.
"""

import json
import os
import sys
import tempfile

import bench


def main(argv):
    names = argv or list(bench.WORKLOAD_NAMES)
    bench._one_blas_thread()
    sys.path.insert(0, bench.SRC)
    import bench_workloads as bw

    os.makedirs(os.path.join(bw.HERE, "reference"), exist_ok=True)
    os.makedirs(bench.WORK, exist_ok=True)
    for name in names:
        for tiny in (False, True):
            wl = bw.workload(name, tiny)
            with tempfile.TemporaryDirectory(dir=bench.WORK) as workdir:
                ref = {op.key: wl.record(op.run()) for op in wl.build(0, workdir)}
            with open(bw.reference_path(name, tiny), "w") as fh:
                json.dump(dict(sorted(ref.items())), fh, indent=1)
                fh.write("\n")
            print(f"{name}{' (tiny)' if tiny else ''}: {len(ref)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
