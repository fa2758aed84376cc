from .cli import main

# runs in a child process: tests/test_rare_branches.py::test_package_entry_point
main()
