"""Hypothesis runs derandomized: every run of one commit draws the same
examples, so a property test cannot pass or fail by chance."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
