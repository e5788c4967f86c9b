"""Synthetic IMDB enrichment: actors and directors for the movie catalogue.

The demo "integrates the MovieLens data with information available from IMDB,
in order to include additional item attributes such as actors and directors"
(§3).  The real join needs the IMDB dumps; offline we reproduce the *effect* —
every movie gains ``actor`` and ``director`` attributes that the query layer
can search over (example queries from §3.2: "Tom Hanks", "thriller movies
directed by Steven Spielberg").

Well-known seed titles get their real principal credits so the paper's example
queries return the expected movies; all other movies receive deterministic
assignments from a fixed name pool (a hash of the movie id picks the names, so
enrichment is stable across runs and processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .model import Item, RatingDataset

#: Real principal credits for seed titles used in the paper's narrative.
KNOWN_CREDITS: Mapping[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # title: (actors, directors)
    "Toy Story": (("Tom Hanks", "Tim Allen"), ("John Lasseter",)),
    "Toy Story 2": (("Tom Hanks", "Tim Allen"), ("John Lasseter",)),
    "The Twilight Saga: Eclipse": (
        ("Kristen Stewart", "Robert Pattinson"),
        ("David Slade",),
    ),
    "The Social Network": (("Jesse Eisenberg", "Andrew Garfield"), ("David Fincher",)),
    "The Lord of the Rings: The Fellowship of the Ring": (
        ("Elijah Wood", "Ian McKellen"),
        ("Peter Jackson",),
    ),
    "The Lord of the Rings: The Two Towers": (
        ("Elijah Wood", "Ian McKellen"),
        ("Peter Jackson",),
    ),
    "The Lord of the Rings: The Return of the King": (
        ("Elijah Wood", "Ian McKellen"),
        ("Peter Jackson",),
    ),
    "Jurassic Park": (("Sam Neill", "Laura Dern"), ("Steven Spielberg",)),
    "Jaws": (("Roy Scheider", "Richard Dreyfuss"), ("Steven Spielberg",)),
    "Minority Report": (("Tom Cruise", "Colin Farrell"), ("Steven Spielberg",)),
    "Saving Private Ryan": (("Tom Hanks", "Matt Damon"), ("Steven Spielberg",)),
    "Forrest Gump": (("Tom Hanks", "Robin Wright"), ("Robert Zemeckis",)),
    "Apollo 13": (("Tom Hanks", "Kevin Bacon"), ("Ron Howard",)),
    "Annie Hall": (("Woody Allen", "Diane Keaton"), ("Woody Allen",)),
    "Manhattan": (("Woody Allen", "Diane Keaton"), ("Woody Allen",)),
}

#: Name pool for movies without known credits (synthetic but plausible).
ACTOR_POOL: Sequence[str] = (
    "Alex Morgan", "Jordan Lee", "Casey Brooks", "Riley Chen", "Morgan Patel",
    "Taylor Reed", "Jamie Flores", "Cameron Ortiz", "Dana Kim", "Avery Novak",
    "Quinn Harper", "Rowan Ellis", "Skyler Dunn", "Peyton Vargas", "Emerson Cole",
    "Finley Hayes", "Sawyer Lane", "Reese Bennett", "Harley Quade", "Marlow West",
)

DIRECTOR_POOL: Sequence[str] = (
    "Pat Calloway", "Sam Whitfield", "Lee Andrada", "Chris Okafor", "Robin Sato",
    "Drew Mercer", "Sidney Vale", "Blake Aldridge", "Noel Iverson", "Toni Marsh",
)


def _stable_hash(value: int) -> int:
    """Small deterministic integer hash independent of PYTHONHASHSEED."""
    value = (value ^ 0x9E3779B9) & 0xFFFFFFFF
    value = (value * 2654435761) & 0xFFFFFFFF
    value ^= value >> 16
    return value


@dataclass(frozen=True)
class SyntheticImdbCatalog:
    """Deterministic actor/director assignment for a movie catalogue."""

    actor_pool: Tuple[str, ...] = tuple(ACTOR_POOL)
    director_pool: Tuple[str, ...] = tuple(DIRECTOR_POOL)
    actors_per_movie: int = 2

    def credits_for(self, item: Item) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Return ``(actors, directors)`` for a movie.

        Known titles get their real credits; everything else is assigned from
        the pools using a hash of the item id.
        """
        if item.title in KNOWN_CREDITS:
            return KNOWN_CREDITS[item.title]
        seed = _stable_hash(item.item_id)
        actors = tuple(
            self.actor_pool[(seed + offset * 7) % len(self.actor_pool)]
            for offset in range(self.actors_per_movie)
        )
        directors = (self.director_pool[seed % len(self.director_pool)],)
        return actors, directors

    def enrich(self, item: Item) -> Item:
        """Return a copy of ``item`` with actors/directors filled in.

        Items that already carry credits are returned unchanged.
        """
        if item.actors and item.directors:
            return item
        actors, directors = self.credits_for(item)
        return Item(
            item_id=item.item_id,
            title=item.title,
            year=item.year,
            genres=item.genres,
            actors=item.actors or actors,
            directors=item.directors or directors,
        )

    def directors_in_catalog(self, items: Iterable[Item]) -> List[str]:
        """Sorted distinct directors after enrichment (for UI pick lists)."""
        names = {d for item in items for d in self.enrich(item).directors}
        return sorted(names)

    def actors_in_catalog(self, items: Iterable[Item]) -> List[str]:
        """Sorted distinct actors after enrichment (for UI pick lists)."""
        names = {a for item in items for a in self.enrich(item).actors}
        return sorted(names)


def enrich_with_imdb(
    dataset: RatingDataset, catalog: Optional[SyntheticImdbCatalog] = None
) -> RatingDataset:
    """Return a new dataset whose items carry actor/director attributes (§3).

    The new dataset shares the rating columns of ``dataset``; only the item
    catalogue is rebuilt.
    """
    catalog = catalog or SyntheticImdbCatalog()
    enriched_items = [catalog.enrich(item) for item in dataset.items()]
    return RatingDataset.from_columns(
        reviewers=list(dataset.reviewers()),
        items=enriched_items,
        item_ids=dataset.item_ids,
        reviewer_ids=dataset.reviewer_ids,
        scores=dataset.scores,
        timestamps=dataset.timestamps,
        schema=dataset.schema,
        name=dataset.name,
        validate=False,
    )
