"""End-to-end decision-latency benchmark over the program zoo.

``run.py`` is the command; ``repeat.py`` repeats it and reports spread.
The engine under test is imported from ``src/`` unmodified — this package
only generates updates, times decisions, checks outputs, and (in a
separate traced run) wraps each layer's public entry points.
"""
