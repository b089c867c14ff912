import warnings

# A failing hypothesis test makes its report hook import this module, which
# pulls in libcst and through it mypy_extensions.TypedDict, whose import
# raises a DeprecationWarning.  Under filterwarnings = ["error"] that warning
# would surface inside a pytest hookwrapper as INTERNALERROR, hiding the
# falsifying example and stopping the session.  Importing it once here, with
# only that warning category ignored, leaves the cached module for the hook.
# The module is private: a hypothesis without it has a hook that cannot
# import it either, so there is nothing to import ahead.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
