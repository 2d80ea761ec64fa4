from loggas import fekete, verify


def test_fekete_checks_solve_each_ladder_n_once(monkeypatch):
    # ground-state-limit's ladder is a subset of fekete-oracle's; the two
    # checks together solve each distinct n once
    verify._ladder_row.cache_clear()
    calls = []
    real = fekete.minimize

    def spy(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(fekete, "minimize", spy)
    assert verify.check_fekete_oracle().passed
    assert verify.check_ground_state_limit().passed
    assert sorted(calls) == [*range(2, 65), 128, 256, 512, 1024]
