"""``python -m minimaxfit``: the same command line as the ``minimaxfit`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
