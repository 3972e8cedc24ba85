"""Session set-up shared by every test module.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest an explicit example. That import loads
libcst, which subclasses ``mypy_extensions.TypedDict`` and so emits a
DeprecationWarning; under pyproject's ``filterwarnings = ["error"]`` the plugin's
hook would raise it and end the session with INTERNALERROR. Importing the module
once here, with that warning ignored only for this import, lets a failing property
test be reported like any other failure while every warning raised by the tests
themselves still fails them.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without its patching extra: nothing to pre-load
        pass
