"""`python -m hadtrunc ...` runs the command line, as the `hadtrunc` script does."""

from .cli import run

if __name__ == "__main__":
    run()
