import os
import pathlib
import sys

from hypothesis import settings

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# `HYPOTHESIS_PROFILE=ci` makes the property tests deterministic and
# free of per-example deadlines, so a slow shared runner cannot flake them.
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
