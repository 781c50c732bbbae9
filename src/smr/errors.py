"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SmrError(Exception):
    """Base class for every error this package raises on purpose."""


class CorpusError(SmrError):
    """A corpus, embeddings, run or qrels file could not be loaded, or its
    documents could not be indexed."""


class UnknownDocumentError(SmrError):
    """A doc_id was referenced that the corpus does not contain."""


class TransportError(SmrError):
    """Network-level failure talking to an endpoint, after retries."""


class EndpointConfigError(SmrError):
    """The endpoint rejected the request (a 4xx other than 408 or 429): bad key, model, or URL."""


class ScriptExhaustedError(SmrError):
    """A scripted backend ran out of canned responses."""


class DecisionParseError(SmrError):
    """Backend output could not be interpreted as a valid decision."""


class TraceFormatError(SmrError):
    """A trace file line did not match the expected record shapes."""


class ConfigError(SmrError):
    """A run configuration file is missing, malformed, or inconsistent."""
