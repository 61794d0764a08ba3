"""The pager's eviction rule: LRU over QoS weight, lowest index on ties."""

from repro.paging.eviction import LruPolicy


def unit_weight(_vrank):
    return 1.0


class TestLru:
    def test_evicts_least_recently_touched(self):
        policy = LruPolicy()
        policy.touch(2000, 0.0)
        policy.touch(2001, 1.0)
        policy.touch(2002, 2.0)
        assert policy.victim([2000, 2001, 2002], 3.0, unit_weight) == 2000

    def test_weight_protects_recent_heavy_tenant(self):
        policy = LruPolicy()
        policy.touch(2000, 0.0)   # idle 10s, weight 10 -> score 1
        policy.touch(2001, 8.0)   # idle 2s,  weight 1  -> score 2
        weights = {2000: 10.0, 2001: 1.0}
        assert policy.victim([2000, 2001], 10.0,
                             weights.__getitem__) == 2001

    def test_never_touched_is_maximally_evictable(self):
        policy = LruPolicy()
        policy.touch(2001, 5.0)
        assert policy.victim([2000, 2001], 6.0, unit_weight) == 2000

    def test_ties_break_to_lowest_vrank(self):
        policy = LruPolicy()
        policy.touch(2001, 1.0)
        policy.touch(2000, 1.0)
        assert policy.victim([2001, 2000], 2.0, unit_weight) == 2000

    def test_forget_drops_state(self):
        policy = LruPolicy()
        policy.touch(2000, 9.0)
        policy.forget(2000)
        # Forgotten -> "never touched" -> evicted before the warm rank.
        policy.touch(2001, 1.0)
        assert policy.victim([2000, 2001], 10.0, unit_weight) == 2000

    def test_no_candidates_returns_none(self):
        assert LruPolicy().victim([], 0.0, unit_weight) is None

    def test_zero_weight_clamps_instead_of_dividing_by_zero(self):
        policy = LruPolicy()
        policy.touch(2000, 0.0)
        assert policy.victim([2000], 1.0, lambda _v: 0.0) == 2000
