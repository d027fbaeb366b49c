"""Documents as a reader of the written artifact sees them."""

from __future__ import annotations

import json

from cdcsim.engine import dump_json


def written(doc):
    """``doc`` written by ``dump_json`` and parsed back: plain dicts and lists.
    ``fixture_to_json`` and ``transcript_to_json`` hold their broadcasts as
    ``Rows``, so a test reads, indexes or edits this instead."""
    return json.loads(dump_json(doc))
