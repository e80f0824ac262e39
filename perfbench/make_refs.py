#!/usr/bin/env python3
"""Write ``refs.json``: reference digests for every reference set.

Run from the repository root on a commit whose outputs are known good::

    python3 perfbench/make_refs.py

Every section is regenerated, so the whole file comes from one commit.
Reference set 0 of the experiment workloads is the committed record
under ``results/`` and is not stored. The service digests are stored
for every set, one per spec, over the parsed artifact.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BUILD, SRC, hermetic_env


def main() -> int:
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="refs-", dir=BUILD / "tmp"))
    hermetic_env(tmp)
    sys.path.insert(0, str(SRC))
    import suite
    from repro.service.client import ServiceClient

    refs = {name: {} for name in ("capacity-grid", "app-sweeps", "service")}
    try:
        for ref in range(1, suite.N_REFS):
            for cls in (suite.CapacityGrid, suite.AppSweeps):
                wl = cls(ref, False, tmp)
                items = wl.items(wl.compute())
                refs[cls.name][str(ref)] = {
                    k: suite.digest(v) for k, (v, _) in sorted(items.items())
                }
                print(f"{cls.name} set {ref}: {len(items)} items", flush=True)
        n = suite.ServiceDrain(0, False, tmp).n_specs()
        for ref in range(suite.N_REFS):
            root = Path(tempfile.mkdtemp(prefix="root-", dir=tmp))
            client = ServiceClient(root)
            specs = suite.service_specs(ref, n)
            ids = []
            for lo in range(0, n, 32):
                ids += [client.submit(s, tenant=suite.TENANTS[i % 4])
                        for i, s in enumerate(specs[lo:lo + 32])]
                client.drain()
            refs["service"][str(ref)] = [
                suite.digest(client.result(job_id)) for job_id in ids
            ]
            client.store.close()
            shutil.rmtree(root)
            print(f"service set {ref}: {len(ids)} jobs", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    suite.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {suite.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
