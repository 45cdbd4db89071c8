"""Write perfbench/reference.json: the fingerprint of every request's output,
computed by the program in this checkout.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are the contract (the seed code).  Every
request of every size is run once, in canonical order, with every sampled
query point; CLI requests run without a cache, so their reference bytes come
from a fresh table.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import bench_workloads as bw


def main() -> int:
    L = run.load_landau()
    workdir = run.OUT_DIR / "tmp-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = {}
    try:
        for size, params in bw.SIZES.items():
            out[size] = {}
            for name, cls in bw.WORKLOADS.items():
                workload = cls(L, params[name], run.ROOT, workdir)
                state = {"cache_dir": None} if name == "cli-warm" else workload.setup(0)
                ref = out[size][name] = {}
                for req in workload.plan(state, None):
                    ref[req.key] = req.fingerprint(req.run())
                print(f"{size}/{name}: {len(ref)} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
