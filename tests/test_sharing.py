"""Share-safety of immutable values: concurrent readers agree with a
sequential baseline, caches included."""

from concurrent.futures import ThreadPoolExecutor

from arl.arcat import canonical_l_adic, stable_image_bound
from arl.gen import GenParams, random_ar_l_adic, random_prime, rng_for
from arl.limits import limit, to_tower
from arl.towers import is_l_adic, is_zero_system


def _facts(tower):
    c = canonical_l_adic(tower)
    return (
        is_l_adic(tower).status,
        is_zero_system(tower).status,
        stable_image_bound(tower).certificate.bound,
        c.shift,
        limit(c.tower),
        tuple(tower.level(n).invariant_factors for n in range(tower.top + 1)),
    )


def test_concurrent_predicate_evaluation_matches_sequential():
    params = GenParams()
    towers = []
    for case in range(12):
        rng = rng_for(71, case)
        towers.append(random_ar_l_adic(rng, random_prime(rng, params), params))

    baseline = [_facts(t) for t in towers]
    # fresh, cache-cold copies of the same instances, queried concurrently;
    # the tower memo is cleared, or equal modules would hand back warm towers
    to_tower.cache_clear()
    fresh = []
    for case in range(12):
        rng = rng_for(71, case)
        fresh.append(random_ar_l_adic(rng, random_prime(rng, params), params))
    jobs = [t for t in fresh for _ in range(4)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(_facts, jobs))
    for i, t in enumerate(fresh):
        for rep in range(4):
            assert concurrent[i * 4 + rep] == baseline[i]
