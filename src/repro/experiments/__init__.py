"""Experiment harness: run points, sweeps, figures, and tables."""
