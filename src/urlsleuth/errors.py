"""Shared exception types for the toolkit."""


class UrlsleuthError(Exception):
    """Base class for every error raised by this package."""


class DataError(UrlsleuthError):
    """An input dataset violates the documented CSV contract."""


class ConfigError(UrlsleuthError):
    """A run configuration file fails validation."""


class ModelError(UrlsleuthError):
    """A model spec or training input is invalid."""


class CatalogMismatchError(UrlsleuthError):
    """A feature catalog version does not match the one this build extracts."""


class ArtifactError(UrlsleuthError):
    """A saved model/pipeline artifact cannot be read back."""
