"""Run the command-line interface: ``python -m linesys ...``."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
