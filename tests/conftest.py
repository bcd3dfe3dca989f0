"""Make tests/ importable as a flat namespace (helpers.py) and register the
``deep`` hypothesis profile (``--hypothesis-profile=deep``)."""

import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("deep", max_examples=1000, deadline=None)
