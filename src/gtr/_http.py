"""The JSON POST both HTTP backends share, with one retry policy: a failed
connection, a status other than 200, or a body that is not JSON, one nested
too deeply included, is retried after ``BACKOFF_S``, then twice that, up to
``ATTEMPTS`` tries. Each retry logs one WARNING on the ``gtr`` logger, which
Python's last-resort handler prints to stderr when no handler is configured.
"""

from __future__ import annotations

import logging
import time

from .errors import BackendUnavailable, loads_json

ATTEMPTS = 3
BACKOFF_S = 0.5

log = logging.getLogger("gtr")


def post_json(url: str, payload: dict, timeout_s: float, backend: str):
    """POST ``payload`` as JSON and return the decoded JSON body.

    Raises:
        BackendUnavailable: the last attempt failed; names ``backend``.
    """
    import requests  # here, so that importing gtr loads no HTTP client
    for attempt in range(1, ATTEMPTS + 1):
        if attempt > 1:
            wait = BACKOFF_S * 2 ** (attempt - 2)
            log.warning(
                "%s backend attempt %d of %d failed (%s); retrying in %g s",
                backend, attempt - 1, ATTEMPTS, problem, wait,
            )
            time.sleep(wait)
        try:
            resp = requests.post(url, json=payload, timeout=timeout_s)
        except requests.RequestException as e:
            problem = f"unreachable: {e}"
            continue
        if resp.status_code != 200:
            problem = f"returned HTTP {resp.status_code}"
            continue
        try:
            return loads_json(resp.text)
        except ValueError as e:  # JSONDecodeError, or loads_json's "nested too deeply"
            problem = f"returned a body that is not JSON: {e}"
    raise BackendUnavailable(
        f"{backend} backend failed after {ATTEMPTS} attempts: {problem}"
    )
