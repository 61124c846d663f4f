"""Fixture: a hash-order leak in the simulation substrate."""


def ranked(pages: list[str]) -> list[str]:
    ranked = []
    for page in {"/", "/index.html"}:
        ranked.append(page)
    return ranked + sorted(set(pages))
