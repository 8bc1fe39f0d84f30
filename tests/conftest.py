"""Make every inherited PYTHONPATH entry absolute.

Some tests run the package in a subprocess with a temporary working
directory; a relative entry such as ``src`` would no longer resolve there.
"""

import os

_entries = os.environ.get("PYTHONPATH")
if _entries:
    _absolute = (os.path.abspath(p) if p else p for p in _entries.split(os.pathsep))
    os.environ["PYTHONPATH"] = os.pathsep.join(_absolute)
