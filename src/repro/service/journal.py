"""Crash-safe campaign journals.

A journal is an append-only JSON-lines file recording the lifecycle of one
campaign: a ``begin`` header, then one ``submitted`` record per cell
scheduled for computation and one ``completed`` record per cell whose value
has been durably written to the result store (``failed`` for terminal
failures). Appends are **atomic**: each record is a single ``os.write`` of
one line to an ``O_APPEND`` descriptor (the
:class:`~repro.obs.events.JsonLinesAppender` the fleet event log also
uses), so concurrent writers interleave at record granularity and a SIGKILL
can at worst truncate the final line — which :meth:`CampaignJournal.replay`
tolerates by discarding it.

The journal is what makes a killed campaign *resumable with attribution*:
the result store already guarantees completed cells are never recomputed
(they hash-hit), but only the journal knows that those hits belong to an
interrupted earlier generation of **this** campaign — which is how the
runner reports ``resumed`` counts and the service computes per-campaign
progress and ETA without touching the store.

Ordering contract with the store: ``completed`` is appended strictly
*after* the store write returns. A crash between the two leaves the cell
completed-in-store but not in the journal; on resume it is served from the
store (correct, deterministic) and simply not counted as resumed — the
journal may under-promise, never lie.

Journal files are named by the campaign's spec hash
(``<root>/<spec_hash>.jsonl``), so re-running the same campaign — same
cells, same salt — resumes its own journal while any change to the grid
starts a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.events import JsonLinesAppender, read_json_lines

#: Record kinds, in lifecycle order.
BEGIN = "begin"
SUBMITTED = "submitted"
COMPLETED = "completed"
FAILED = "failed"

#: Bumped if the record encoding changes incompatibly.
JOURNAL_SCHEMA = 1


@dataclass
class JournalState:
    """The digest :meth:`CampaignJournal.replay` folds a journal into."""

    campaign: str = ""
    spec_hash: str = ""
    total: int = 0
    #: content_hash -> cell key, for every ``completed`` record seen.
    completed: Dict[str, str] = field(default_factory=dict)
    #: content_hash -> cell key, for every ``submitted`` record seen.
    submitted: Dict[str, str] = field(default_factory=dict)
    #: content_hash -> error string of terminal failures.
    failed: Dict[str, str] = field(default_factory=dict)
    #: Number of ``begin`` records — 1 for an uninterrupted run, +1 per resume.
    generations: int = 0
    #: Records whose JSON would not parse (at most the torn final line of a
    #: crashed generation, but counted wherever they appear).
    torn_records: int = 0

    @property
    def interrupted(self) -> bool:
        """True when a prior generation stopped before completing its grid."""
        return self.generations > 0 and len(self.completed) + len(self.failed) < self.total


class CampaignJournal(JsonLinesAppender):
    """Append-only journal of one campaign's cell lifecycle."""

    @classmethod
    def for_spec(
        cls, root: Union[str, Path], spec: Any, salt: str = ""
    ) -> "CampaignJournal":
        """The journal of ``spec`` (a :class:`~repro.runner.spec.CampaignSpec`)
        under directory ``root``, named by its spec hash."""
        return cls(Path(root) / f"{spec.spec_hash(salt)}.jsonl")

    # -- writing -----------------------------------------------------------

    def begin(self, campaign: str, spec_hash: str, total: int, salt: str = "") -> None:
        self.append(
            {
                "kind": BEGIN,
                "schema": JOURNAL_SCHEMA,
                "campaign": campaign,
                "spec_hash": spec_hash,
                "total": total,
                "salt": salt,
            }
        )

    def submitted(self, content_hash: str, key: str) -> None:
        self.append({"kind": SUBMITTED, "hash": content_hash, "key": key})

    def completed(self, content_hash: str, key: str) -> None:
        self.append({"kind": COMPLETED, "hash": content_hash, "key": key})

    def failed(self, content_hash: str, key: str, error: str) -> None:
        self.append({"kind": FAILED, "hash": content_hash, "key": key, "error": error})

    # -- reading -----------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every decodable record, in append order (torn lines skipped)."""
        return read_json_lines(self.path)[0]

    def replay(self) -> JournalState:
        """Fold the journal into a :class:`JournalState` digest."""
        records, torn = read_json_lines(self.path)
        state = JournalState(torn_records=torn)
        for record in records:
            kind = record.get("kind")
            if kind == BEGIN:
                state.generations += 1
                state.campaign = str(record.get("campaign", state.campaign))
                state.spec_hash = str(record.get("spec_hash", state.spec_hash))
                state.total = int(record.get("total", state.total))
            elif kind == SUBMITTED:
                state.submitted[str(record.get("hash", ""))] = str(record.get("key", ""))
            elif kind == COMPLETED:
                content_hash = str(record.get("hash", ""))
                state.completed[content_hash] = str(record.get("key", ""))
                state.failed.pop(content_hash, None)  # a later success supersedes
            elif kind == FAILED:
                state.failed[str(record.get("hash", ""))] = str(record.get("error", ""))
        return state


def as_journal(
    journal: Union[None, str, Path, CampaignJournal], spec: Any, salt: str = ""
) -> Optional[CampaignJournal]:
    """Coerce a user-facing journal argument.

    ``None`` disables journaling; a string/path is a journal *directory*
    (the file is derived from the campaign's spec hash); an existing
    :class:`CampaignJournal` passes through.
    """
    if journal is None or isinstance(journal, CampaignJournal):
        return journal
    return CampaignJournal.for_spec(journal, spec, salt)
