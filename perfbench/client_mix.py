"""Count the specs the experiments CLI sends its farm client.

The ``serve`` workload takes its shares of first-seen and repeated specs
from this count.  One ``risc1-experiments --jobs 2 --format json`` run,
in this process against a fresh cache, with ``FarmClient.sweep`` and
``FarmClient.submit`` wrapped to record every spec they are given::

    python3 perfbench/client_mix.py

prints ``sweep_specs`` (the first-seen specs of the pre-warm sweep),
``suite_specs`` (the specs the experiments submit afterwards) and
``suite_repeats`` (how many of those the sweep already sent).  It takes
about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from common import SRC, scratch_dir


def main() -> int:
    sys.path.insert(0, str(SRC))
    with scratch_dir() as work:
        os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
        os.environ["TMPDIR"] = str(work)
        from repro.experiments import cli
        from repro.farm import api

        swept: list[str] = []
        submitted: list[str] = []
        sweep, submit = api.FarmClient.sweep, api.FarmClient.submit

        def counting_sweep(self, jobs, *args, **kwargs):
            swept.extend(job.key for job in jobs)
            return sweep(self, jobs, *args, **kwargs)

        def counting_submit(self, item):
            future = submit(self, item)
            submitted.append(item.to_job().key)
            return future

        api.FarmClient.sweep, api.FarmClient.submit = counting_sweep, counting_submit
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--jobs", "2", "--format", "json"])
    print(json.dumps({
        "sweep_specs": len(set(swept)),
        "suite_specs": len(submitted),
        "suite_repeats": sum(1 for key in submitted if key in set(swept)),
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
