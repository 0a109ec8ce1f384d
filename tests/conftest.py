"""Test-session settings.

With the ``CI`` environment variable set (GitHub Actions sets it), the
property tests run under the hypothesis profile ``ci``: examples are
derived from each test's name rather than drawn at random, so a CI run
cannot fail on a draw that no local run has seen, and a failure prints
the blob that reproduces it.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
