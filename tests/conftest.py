import warnings

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis.extra._patching once a test has failed.

    A failing hypothesis test makes its teardown report hook import this
    module, which pulls in libcst and through it mypy_extensions.TypedDict,
    whose import raises a DeprecationWarning.  Under filterwarnings =
    ["error"] that warning would surface inside a pytest hookwrapper as
    INTERNALERROR, hiding the falsifying example and stopping the session.
    The failed call report comes first, so importing the module there, with
    only that warning category ignored, leaves the cached module for the
    hook; a passing session never pays for the import.  The module is
    private: a hypothesis without it has a hook that cannot import it
    either, so there is nothing to import ahead.
    """
    outcome = yield
    if outcome.get_result().failed:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
