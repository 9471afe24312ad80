"""The benchmark's tracer still finds every package name it wraps.

``perfbench/layertrace.install`` looks each name up with ``getattr`` and
monkeypatches the package's modules, so it runs in a child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

CHILD = """
import json
import numpy as np
from layertrace import Tracer, finish, install
from shrinktarget import measures

wrapped = []

class Recording(Tracer):
    def wrap(self, owner, attr, name, **kwargs):
        fn = getattr(owner, attr)
        super().wrap(owner, attr, name, **kwargs)
        assert getattr(owner, attr).__wrapped__ is fn, name
        wrapped.append(name)

tracer = Recording()
install(tracer)
measures.ParryYrrapMeasure("g").sample(np.random.default_rng(1), 4)
print(json.dumps([wrapped, finish(tracer)["counters"]["measures.accept_rate"]]))
"""


def test_every_wrapped_name_resolves():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                           text=True, timeout=120, check=False)
    assert child.returncode == 0, child.stderr
    wrapped, accept_rate = json.loads(child.stdout)
    # among them the names only the tracer reads: counting imports beta_step and
    # preimage_intervals by name, and finish() reads ParryYrrapMeasure.envelope
    assert {"orbits.beta_step", "targets.contains", "targets.phi_values",
            "cylinders.preimage_intervals", "counting.count_hits", "cli.run",
            "markov.normalize_partition", "measures.ParryYrrapMeasure",
            "measures.sample", "measures.ball"} <= set(wrapped)
    assert 0 < accept_rate <= 1
