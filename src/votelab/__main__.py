"""``python -m votelab``: the ``votelab`` command."""

import sys

from votelab.cli import main

if __name__ == "__main__":
    sys.exit(main())
