"""Build and load the compiled model step, _step.c, with ctypes.

The step is plain C with no Python C-API, so it ties to no CPython ABI.
load() compiles it on first use with the C compiler Python was built with
(sysconfig's CC) and keeps the shared library under $XDG_CACHE_HOME/enkpf
(~/.cache/enkpf by default), named by the sha256 of the source, the flags,
the compiler and the machine. A library is written under a temporary name
and renamed into place, so processes that compile at once never load each
other's half-written files; where that directory cannot be written, the
library is built in a private temporary directory instead. load() returns
None where there is no compiler or the compile fails or times out.

The flags keep the arithmetic as written: -ffp-contract=off stops the
compiler from fusing a multiply and an add into one FMA instruction, which
rounds once where numpy rounds twice, and no flag lets it reorder or
approximate (-ffast-math, -Ofast) or tune for the build machine
(-march=native). -fno-trapping-math, clang's default, tells gcc that no
floating-point exception flag is read, which changes no value; it lets gcc
turn the step's selects into vector blends and so vectorize its loops
(a 50-row step's kernel took about 170 against 270 us without it, 2-core
Xeon, gcc 12).
"""

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_step.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fno-trapping-math", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 60.0


def compiler():
    """The C compiler command Python was built with, as a list; [] if none."""
    return shlex.split(sysconfig.get_config_var("CC") or "")


def cache_dir():
    """Where compiled libraries are kept: $XDG_CACHE_HOME/enkpf."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "enkpf"


def _compile(cc, path):
    """Build SOURCE into path by way of a temporary file beside it; whether
    that worked. Raises OSError where path's directory cannot be written."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        # on a timeout subprocess.run kills the compiler and waits for it
        done = subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True,
                              timeout=COMPILE_TIMEOUT_S)
        if done.returncode == 0:
            os.replace(tmp, path)
            return True
    except (OSError, subprocess.SubprocessError):
        pass
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return False


def load():
    """The library built from SOURCE, as a ctypes.CDLL, compiled or from the
    cache; None where it cannot be built."""
    cc = compiler()
    if not cc or not SOURCE.is_file():
        return None
    key = hashlib.sha256("\0".join(
        [SOURCE.read_text(), *FLAGS, *cc, platform.machine()]).encode()).hexdigest()
    name = f"step-{key[:32]}.so"
    try:
        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        return ctypes.CDLL(str(path)) if path.exists() or _compile(cc, path) else None
    except OSError:  # a cache that cannot be written, or a library that does not load
        pass
    # the library stays loaded once its directory is gone
    with tempfile.TemporaryDirectory(prefix="enkpf-") as private:
        path = Path(private) / name
        return ctypes.CDLL(str(path)) if _compile(cc, path) else None
