"""Experiment harness: numeric self-checks, batch runners, and the CLI."""
