"""Hypothesis profiles for the test suite.

No profile shrinks: a failure needs one failing example, not the smallest,
and shrinking a long failing property can hold the suite for minutes.
``no-shrink`` is loaded by default; ``mutate`` (``tools/mutate.py`` passes
``--hypothesis-profile=mutate``) also draws a fixed example stream, so
every mutation run kills the same mutants.  ``bank`` draws a fixed stream
ten times as long for the properties that leave their example count to the
profile, such as the filter bank's contract with its reference:

    PYTHONPATH=src python -m pytest -q tests/test_bank_properties.py --hypothesis-profile=bank
"""

from hypothesis import Phase, settings

_PHASES = [Phase.explicit, Phase.reuse, Phase.generate]
settings.register_profile("no-shrink", phases=_PHASES)
settings.register_profile("mutate", derandomize=True, phases=_PHASES)
settings.register_profile("bank", derandomize=True, max_examples=1000, phases=_PHASES)
settings.load_profile("no-shrink")
