"""`python -m slmatch ...` runs the `slmatch` command."""

from .cli import run

if __name__ == "__main__":
    run()
