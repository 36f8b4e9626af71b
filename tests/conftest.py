"""Suite-wide hypothesis settings: every property test draws the same
examples on every run, keeps no example database and has no deadline; each
test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("neucalib", derandomize=True, database=None, deadline=None)
settings.load_profile("neucalib")
