"""Hypothesis runs derandomized, with a fixed example budget and no
deadline: fuzz tests repeat byte for byte and stay within a few seconds."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("repeatable")
