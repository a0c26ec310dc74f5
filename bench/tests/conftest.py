import sys
from pathlib import Path

# the benchmark's modules live one directory up and are not a package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
