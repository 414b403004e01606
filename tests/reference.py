"""Independent reference implementations used only by the tests.

Deliberately naive: generate everything with itertools, test containment by
scanning all subsequences.  Nothing here shares code with the package, so
agreement between the two is meaningful evidence.
"""

import itertools


def naive_contains(sigma, pattern):
    k = len(pattern)
    if k > len(sigma):
        return False
    for idx in itertools.combinations(range(len(sigma)), k):
        sub = [sigma[i] for i in idx]
        if all((sub[a] < sub[b]) == (pattern[a] < pattern[b])
               and (sub[a] > sub[b]) == (pattern[a] > pattern[b])
               for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def naive_avoids(sigma, patterns):
    return all(not naive_contains(sigma, p) for p in patterns)


def all_multiset_perms(mu):
    """Every arrangement of {1^mu[0], ..., n^mu[n-1]}, sorted, no duplicates."""
    base = []
    for v, m in enumerate(mu, start=1):
        base.extend([v] * m)
    return sorted(set(itertools.permutations(base)))


def all_regular_perms(n, m):
    return all_multiset_perms([m] * n)


def naive_count(n, m, patterns):
    return sum(1 for s in all_regular_perms(n, m) if naive_avoids(s, patterns))


def naive_list(n, m, patterns):
    return [s for s in all_regular_perms(n, m) if naive_avoids(s, patterns)]


def naive_words(n, length):
    return itertools.product(range(1, n + 1), repeat=length)


def naive_word_count(n, length, patterns):
    return sum(1 for w in naive_words(n, length) if naive_avoids(w, patterns))
