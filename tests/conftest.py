import hypothesis

hypothesis.settings.register_profile(
    "continued_roots", deadline=None, max_examples=100
)
hypothesis.settings.load_profile("continued_roots")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        help="rewrite tests/golden/cli.txt from the current CLI output",
    )
