"""``python -m lowreg``: the ``lowreg`` command line."""

from .study_cli import console_entry

console_entry()
