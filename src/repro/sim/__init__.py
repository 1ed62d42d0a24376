"""Simulators: functional interpretation, register residency, cycle counting."""
