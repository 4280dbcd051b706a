"""``python -m rbr``: the command-line interface of :mod:`rbr.cli`."""

import sys

from .cli import main

sys.exit(main())
