"""Scalar replacement: coverage policies and the kernel transform."""
