"""Opt-in pytest plugin: the lines of src/quasilab that a run never executed.

    PYTHONPATH=src:tests python -m pytest -p linecensus

The tracer starts when pytest loads the plugin, before the package is
imported, so module-level statements count.  A line counts when a code
object of the module has bytecode on it, its own def line aside.  The
lines that never ran go to linecensus.txt, one ``path:line`` each.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src" / "quasilab")
_ran: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _lines(code):
    yield from (n for _, _, n in code.co_lines() if n and n != code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


def pytest_unconfigure(config):
    sys.settrace(None)
    missed = [f"{p}:{n}" for p in sorted(map(str, Path(SRC).glob("*.py")))
              for n in sorted(set(_lines(compile(Path(p).read_text(), p, "exec"))))
              if (p, n) not in _ran]
    Path("linecensus.txt").write_text("".join(m + "\n" for m in missed))


sys.settrace(lambda frame, event, arg: _line if frame.f_code.co_filename.startswith(SRC) else None)
