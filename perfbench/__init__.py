"""The repository benchmark; ``perfbench/run.py`` is the entry point."""
