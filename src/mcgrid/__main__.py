import sys

from .executor import WORKER_FLAG, worker_main

if __name__ == "__main__":
    if sys.argv[1:] == [WORKER_FLAG]:  # a process worker needs none of the report modules
        sys.exit(worker_main())
    from .cli import main
    sys.exit(main())
