"""Let the `python -m kch.cli` subprocesses that tests start import the
package from this checkout's src/, as pytest's own `pythonpath` does."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])
