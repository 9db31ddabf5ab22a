"""Shared pytest setup.

``--hypothesis-profile=ci`` selects the profile the CI workflow runs
under: derandomized, so every run tries the same examples, with no
per-example deadline (shared runners stall), and a failure prints the
blob that replays it.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
