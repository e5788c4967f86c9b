"""Reader/writer for the MovieLens-1M on-disk format.

The demo dataset is the GroupLens "Million rating data set" (§3): three
``::``-separated files,

* ``users.dat``   — ``UserID::Gender::Age::Occupation::Zip-code``
* ``movies.dat``  — ``MovieID::Title (Year)::Genre|Genre|...``
* ``ratings.dat`` — ``UserID::MovieID::Rating::Timestamp``

``load_movielens_directory`` parses a directory in that layout into a
:class:`~repro.data.model.RatingDataset`, resolving each reviewer's state and
city from the zip code through the geo substrate.  ``write_movielens_directory``
performs the inverse, which the tests use for a lossless round-trip and which
lets users export synthetic datasets for external tools.
"""

from __future__ import annotations

import re
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import DatasetFormatError
from ..geo.states import ALL_STATE_CODES
from ..geo.zipcodes import ZipResolver
from .imdb import SyntheticImdbCatalog
from .model import Item, RatingDataset, Reviewer
from .schema import OCCUPATIONS, default_schema

SEPARATOR = "::"
_TITLE_YEAR_RE = re.compile(r"^(?P<title>.*)\s+\((?P<year>\d{4})\)\s*$")

#: Reverse occupation lookup used when writing datasets back to disk.
_OCCUPATION_CODES: Dict[str, int] = {label: code for code, label in OCCUPATIONS.items()}


def _split(line: str, expected_fields: int, path: Path, line_number: int) -> List[str]:
    parts = line.rstrip("\n").split(SEPARATOR)
    if len(parts) != expected_fields:
        raise DatasetFormatError(
            f"{path.name}:{line_number}: expected {expected_fields} fields, "
            f"got {len(parts)}"
        )
    return parts


def parse_title(raw_title: str) -> Tuple[str, int]:
    """Split a MovieLens title like ``"Toy Story (1995)"`` into (title, year)."""
    match = _TITLE_YEAR_RE.match(raw_title.strip())
    if not match:
        return raw_title.strip(), 0
    return match.group("title"), int(match.group("year"))


def load_users_file(path: Path, resolver: Optional[ZipResolver] = None) -> List[Reviewer]:
    """Parse ``users.dat`` into reviewers with resolved state/city."""
    resolver = resolver or ZipResolver()
    reviewers: List[Reviewer] = []
    with open(path, encoding="latin-1") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            user_id, gender, age, occupation_code, zipcode = _split(
                line, 5, path, line_number
            )
            try:
                occupation = OCCUPATIONS[int(occupation_code)]
            except (KeyError, ValueError) as exc:
                raise DatasetFormatError(
                    f"{path.name}:{line_number}: bad occupation code {occupation_code!r}"
                ) from exc
            state, city = resolver.resolve(zipcode)
            reviewers.append(
                Reviewer(
                    reviewer_id=int(user_id),
                    gender=gender,
                    age=int(age),
                    occupation=occupation,
                    zipcode=zipcode,
                    state=state,
                    city=city,
                )
            )
    return reviewers


def load_movies_file(path: Path, enrich: bool = True) -> List[Item]:
    """Parse ``movies.dat``; optionally add IMDB-style actor/director credits."""
    catalog = SyntheticImdbCatalog()
    items: List[Item] = []
    with open(path, encoding="latin-1") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            movie_id, raw_title, raw_genres = _split(line, 3, path, line_number)
            title, year = parse_title(raw_title)
            genres = tuple(g for g in raw_genres.strip().split("|") if g)
            item = Item(item_id=int(movie_id), title=title, year=year, genres=genres)
            items.append(catalog.enrich(item) if enrich else item)
    return items


def load_ratings_file(path: Path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse ``ratings.dat`` into the four rating columns.

    Returns ``(item_ids, reviewer_ids, scores, timestamps)`` in file order —
    ``int64`` apart from the ``float64`` scores — ready for
    :meth:`RatingDataset.from_columns`.  Each line is parsed straight into
    compact ``array`` buffers, so no per-rating Python object survives it.
    """
    item_ids, reviewer_ids, timestamps = array("q"), array("q"), array("q")
    scores = array("d")
    with open(path, encoding="latin-1") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            user_id, movie_id, score, timestamp = _split(line, 4, path, line_number)
            item_ids.append(int(movie_id))
            reviewer_ids.append(int(user_id))
            scores.append(float(score))
            timestamps.append(int(timestamp))
    return (
        np.frombuffer(item_ids, dtype=np.int64).copy(),
        np.frombuffer(reviewer_ids, dtype=np.int64).copy(),
        np.frombuffer(scores, dtype=np.float64).copy(),
        np.frombuffer(timestamps, dtype=np.int64).copy(),
    )


def load_movielens_directory(
    directory: str | Path,
    name: str = "movielens-1m",
    enrich: bool = True,
    validate: bool = True,
) -> RatingDataset:
    """Load a MovieLens-1M style directory into a :class:`RatingDataset`.

    Args:
        directory: directory containing ``users.dat``, ``movies.dat`` and
            ``ratings.dat``.
        name: dataset name.
        enrich: add synthetic IMDB credits so actor/director queries work.
        validate: check referential integrity after loading.
    """
    base = Path(directory)
    users_path = base / "users.dat"
    movies_path = base / "movies.dat"
    ratings_path = base / "ratings.dat"
    for path in (users_path, movies_path, ratings_path):
        if not path.exists():
            raise DatasetFormatError(f"missing MovieLens file: {path}")
    reviewers = load_users_file(users_path)
    items = load_movies_file(movies_path, enrich=enrich)
    item_ids, reviewer_ids, scores, timestamps = load_ratings_file(ratings_path)
    schema = default_schema(states=ALL_STATE_CODES)
    return RatingDataset.from_columns(
        reviewers=reviewers,
        items=items,
        item_ids=item_ids,
        reviewer_ids=reviewer_ids,
        scores=scores,
        timestamps=timestamps,
        schema=schema,
        name=name,
        validate=validate,
    )


def write_movielens_directory(dataset: RatingDataset, directory: str | Path) -> None:
    """Write a dataset back out in the MovieLens-1M ``.dat`` layout."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "users.dat", "w", encoding="latin-1") as handle:
        for reviewer in sorted(dataset.reviewers(), key=lambda r: r.reviewer_id):
            occupation_code = _OCCUPATION_CODES.get(reviewer.occupation, 0)
            handle.write(
                SEPARATOR.join(
                    [
                        str(reviewer.reviewer_id),
                        reviewer.gender,
                        str(reviewer.age),
                        str(occupation_code),
                        reviewer.zipcode,
                    ]
                )
                + "\n"
            )
    with open(base / "movies.dat", "w", encoding="latin-1") as handle:
        for item in sorted(dataset.items(), key=lambda i: i.item_id):
            title = f"{item.title} ({item.year})" if item.year else item.title
            handle.write(
                SEPARATOR.join([str(item.item_id), title, "|".join(item.genres)]) + "\n"
            )
    with open(base / "ratings.dat", "w", encoding="latin-1") as handle:
        for rating in dataset.ratings():
            handle.write(
                SEPARATOR.join(
                    [
                        str(rating.reviewer_id),
                        str(rating.item_id),
                        f"{rating.score:g}",
                        str(rating.timestamp),
                    ]
                )
                + "\n"
            )
