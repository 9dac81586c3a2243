"""Exact scalars and sparse vectors (basis), signs, and elimination (linalg)."""
