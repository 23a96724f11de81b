"""Construction and exact verification of absorption-emission quantum codes."""

__version__ = "0.1.0"
