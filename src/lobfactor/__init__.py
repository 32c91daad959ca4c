"""Order-book market simulator with switchable agent components and tail metrics."""

__version__ = "0.3.1"
