"""Scenario configs, report emission and the acceptance selftest."""
