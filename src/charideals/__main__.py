"""``python -m charideals``: the command-line interface."""

from .cli import _exit_after_main

if __name__ == "__main__":
    _exit_after_main()
