"""``python -m ostar``: the same command line as the ``ostar`` script."""
import sys
from .cli import main
sys.exit(main())
