"""Task-agnostic bilateral hip exoskeleton controller, stride-replay
simulator, in-silico parameter optimizer, and joint-energetics metrics.

The package imports nothing itself: import the module you use, such as
``hipexo.controller`` for the 250 Hz runtime, which loads neither yaml nor
the offline tools. Nothing in the package needs scipy.
"""

__version__ = "0.1.0"
