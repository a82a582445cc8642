"""The body of each CLI command, one module each, and the writers they
share (``output``).  ``selfsim.cli`` parses the command line, builds the
ExperimentConfig and resolves the system, then imports only the body of
the command it runs.  No module here imports ``selfsim.cli``: under
``python -m`` it runs as ``__main__``, and importing it would execute it
a second time."""
