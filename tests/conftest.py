import os
from pathlib import Path

import pytest

# The CLI tests run ``python -m ffstick.cli`` in subprocesses; they find the
# package in the same ``src`` that ``pythonpath`` in pyproject.toml adds here.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def announce(request):
    """Write one status line per acceptance criterion past output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(num: int, ok: bool, elapsed: float, label: str):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s) {label}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            print(line)

    return _announce
