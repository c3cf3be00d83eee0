"""`enkpf` command line with every layer boundary in spans.WRAPPED traced.

    python3 perfbench/traced_run.py SPAN_DIR run --config ... --out ...

Writes spans-<pid>.jsonl files into SPAN_DIR; everything else behaves as
`enkpf` itself.
"""

import os
import sys

import spans

if __name__ == "__main__":
    span_dir = sys.argv[1]
    os.makedirs(span_dir, exist_ok=True)
    tracer = spans.install(span_dir)
    from enkpf.cli import main

    try:
        code = main(sys.argv[2:])
    finally:
        tracer.flush()
    sys.exit(code)
