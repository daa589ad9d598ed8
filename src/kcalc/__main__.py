"""Run the command-line interface as ``python -m kcalc``."""

from .cli import run

if __name__ == "__main__":
    run()
