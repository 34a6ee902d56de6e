"""Shared test settings.

Every hypothesis property test runs derandomized, without an example
database and without a deadline, so a run is reproducible and writes
nothing; each test sets its own max_examples.
"""

from hypothesis import settings

settings.register_profile("mf2", deadline=None, derandomize=True, database=None)
settings.load_profile("mf2")
