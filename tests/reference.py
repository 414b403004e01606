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


def _shape(seq):
    """How each pair of entries compares, pair by pair from the left."""
    return tuple((a > b) - (a < b) for a, b in itertools.combinations(seq, 2))


def _ends_in_occurrence(word, shapes):
    """Whether some occurrence of a pattern in word uses word's last letter;
    shapes maps each pattern length to the shapes of those patterns."""
    *head, last = word
    return any(_shape([head[i] for i in idx] + [last]) in found
               for k, found in shapes.items()
               for idx in itertools.combinations(range(len(head)), k - 1))


def extended_list(mu, patterns):
    """The arrangements of {1^mu[0], ..., n^mu[n-1]} that avoid the
    patterns, in lexicographic order, for multisets too large to generate
    whole.  Prefixes are extended one letter at a time, and one is dropped
    when it, or it followed by some letter still to be placed, contains a
    pattern: every arrangement that starts with it contains that too.  A new
    occurrence always ends at the letter just placed."""
    shapes = {}
    for p in patterns:
        shapes.setdefault(len(p), set()).add(_shape(p))
    out = []

    def extend(prefix, left):
        if not any(left):
            out.append(tuple(prefix))
        for v, copies in enumerate(left, 1):
            if copies:
                prefix.append(v)
                left[v - 1] -= 1
                if not _ends_in_occurrence(prefix, shapes) and \
                        not any(_ends_in_occurrence(prefix + [c], shapes)
                                for c, k in enumerate(left, 1) if k):
                    extend(prefix, left)
                prefix.pop()
                left[v - 1] += 1

    extend([], list(mu))
    return out


def naive_words(n, length):
    return itertools.product(range(1, n + 1), repeat=length)


def naive_word_count(n, length, patterns):
    return sum(1 for w in naive_words(n, length) if naive_avoids(w, patterns))
