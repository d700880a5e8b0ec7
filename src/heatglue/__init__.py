"""heatglue: heat kernels on glued graphs and 1d domains, exactly where possible."""

__version__ = "0.1.0"
