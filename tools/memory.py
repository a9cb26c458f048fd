"""Set-up time, run time and memory of one ``Simulation`` per scenario
file, one JSON line per file.

Usage, from the root of a checkout:

    python3 tools/memory.py scenarios/mix-4000.yaml [SCENARIO ...]

Each scenario runs twice, each time in a fresh interpreter that imports
the ``arsusim`` in the ``src/`` beside this file and loads the scenario
before it measures anything:

- a plain run gives ``init_s``, the seconds of ``Simulation.__init__``,
  ``run_s``, those of ``run()``, and ``maxrss_mib``, the process's peak
  resident set (``ru_maxrss``) after it;
- a run with ``tracemalloc`` on from just before ``Simulation.__init__``
  gives ``traced_peak_bytes``, the traced peak during ``run()``, and
  ``held_bytes``, the bytes still traced after it, with the simulation
  and its result held, after a garbage collection.

``maxrss_mib`` moves with the shape of a run's allocations as well as
with what it holds; ``held_bytes`` counts only what the run keeps, so
the two together tell a change in held memory from one in allocation
shape. The traced run is slower, and its times are not reported.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"


def measure(scenario: str, traced: bool) -> dict:
    """Run ``scenario`` in this interpreter: the plain run's fields, or,
    when ``traced``, the traced run's."""
    sys.path.insert(0, str(SRC))
    from arsusim.config import load_scenario
    from arsusim.sim import Simulation

    config = load_scenario(scenario)
    gc.collect()
    if not traced:
        start = time.perf_counter()
        simulation = Simulation(config)
        set_up = time.perf_counter()
        simulation.run()
        done = time.perf_counter()
        return {
            "users": len(config.users),
            "init_s": round(set_up - start, 4),
            "run_s": round(done - set_up, 4),
            "maxrss_mib": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
        }
    tracemalloc.start()
    simulation = Simulation(config)
    tracemalloc.reset_peak()
    result = simulation.run()  # held, with the simulation, until measured
    peak = tracemalloc.get_traced_memory()[1]
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"traced_peak_bytes": peak, "held_bytes": held}


def _in_fresh_interpreter(scenario: str, traced: bool) -> dict:
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import json, "
            f"memory; print(json.dumps(memory.measure({scenario!r}, "
            f"{traced!r})))")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for scenario in argv:
        line = {"scenario": scenario}
        line.update(_in_fresh_interpreter(scenario, traced=False))
        line.update(_in_fresh_interpreter(scenario, traced=True))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
