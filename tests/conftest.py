import warnings
from contextlib import suppress

import hypothesis

# One shared profile: no deadline (eigendecompositions on CI boxes can
# hiccup), derandomized so every run exercises the same cases.
hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("suite")

# Hypothesis imports this module while it reports a failing property, and
# libcst's import raises a DeprecationWarning that filterwarnings = error
# turns into an INTERNALERROR, which hides the failure. Importing it here,
# once, with that warning ignored lets the failure report as FAILED.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
