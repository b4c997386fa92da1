"""``python -m catloss``: the ``catloss`` command."""
from .cli import main

raise SystemExit(main())
