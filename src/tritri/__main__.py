from .cli import entry_point

entry_point()
