"""Synthesis estimators: area, timing and whole-design evaluation."""
