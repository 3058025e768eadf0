import sys

from .executor import WORKER_FLAG, zygote_main

if __name__ == "__main__":
    if sys.argv[1:] == [WORKER_FLAG]:  # the zygote needs none of the report modules
        sys.exit(zygote_main())
    from .cli import main
    sys.exit(main())
