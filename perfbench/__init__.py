"""Real-clock benchmark of the engine; see ``perfbench/README.md``."""
