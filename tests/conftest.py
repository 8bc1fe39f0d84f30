"""Make every inherited PYTHONPATH entry absolute, and print hypothesis's
reproduction blob on CI.

Some tests run the package in a subprocess with a temporary working
directory; a relative entry such as ``src`` would no longer resolve there.

With ``CI`` set, as on the GitHub runners, the ``print-blob`` profile is
loaded: the active profile with ``print_blob=True``, so a failing
property test prints its ``@reproduce_failure`` blob and can be replayed
locally on the same Python and hypothesis versions.  Example counts,
deadlines and every other setting stay those of the active profile
(recent hypothesis versions load their own ``ci`` profile under ``CI``,
which already prints the blob).
"""

import os

from hypothesis import settings

_entries = os.environ.get("PYTHONPATH")
if _entries:
    _absolute = (os.path.abspath(p) if p else p for p in _entries.split(os.pathsep))
    os.environ["PYTHONPATH"] = os.pathsep.join(_absolute)

settings.register_profile("print-blob", parent=settings(), print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("print-blob")
