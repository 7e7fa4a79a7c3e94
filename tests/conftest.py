"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, with no per-example deadline and a bounded number
of examples, so the suite stays at a few seconds.
"""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a dev-only dependency
    pass
else:
    settings.register_profile("bookbind", derandomize=True, deadline=None, max_examples=60)
    settings.load_profile("bookbind")
