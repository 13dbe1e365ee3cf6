"""Configuration, report writing, sweep orchestration and the CLI."""
