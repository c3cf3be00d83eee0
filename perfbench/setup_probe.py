"""One set-up sample: the fixed cost a fresh `enkpf run` pays before its
first repetition, i.e. importing enkpf.experiment, parsing the config and
the first warm start of the model. Prints the seconds it took.

    python3 perfbench/setup_probe.py CONFIG
"""

import sys
import time

start = time.perf_counter()

import enkpf.experiment  # noqa: E402,F401
from enkpf import sweq  # noqa: E402
from enkpf.config import parse_config  # noqa: E402

with open(sys.argv[1]) as fh:
    cfg = parse_config(fh.read())
sweq.warm_state(cfg.model)
print(time.perf_counter() - start)
