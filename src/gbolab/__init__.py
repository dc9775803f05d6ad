"""gbolab: a pseudospectral laboratory for dispersive equations of
Benjamin-Ono type with power nonlinearities."""

__version__ = "0.1.0"
