"""Configuration, report writing, sweep orchestration and the CLI."""

from .config import RunConfig, ConfigError, DEFAULT_CONFIG, write_schema
from .reports import write_table
from .sweep import map_ordered

__all__ = ["RunConfig", "ConfigError", "DEFAULT_CONFIG", "write_schema",
           "write_table", "map_ordered"]
