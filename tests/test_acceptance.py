"""End-to-end acceptance battery.

One test per check in `loggas.verify.ALL_CHECKS`, in that order and named
after it: the check `verify.check_<name>` at position NN is the test
`test_NN_<name>`. Each test runs its check with the full budget, prints
the one-line verdict, and asserts the verdict. Run with -s to see the
lines as they complete; the same battery backs `loggas verify`.
"""

from loggas import verify


def _acceptance_test(check):
    def test():
        r = check()
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail} ({r.seconds:.1f}s)")
        assert r.passed, f"{r.name}: {r.detail}"

    return test


for _i, _check in enumerate(verify.ALL_CHECKS, 1):
    globals()[f"test_{_i:02d}_{_check.__name__.removeprefix('check_')}"] = _acceptance_test(_check)
