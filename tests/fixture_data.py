"""Frozen reference values for the six-atom worked example.

The example uses universe {a,b,c,e,f,q} with blocks {abc, ef, q}.  The
source listing of approximation triples prints 61 of the 63 nonempty
subsets; the two it skips (cq and abefq) carry independently derived
values kept separately below.
"""

UNIVERSE_ATOMS = ("a", "b", "c", "e", "f", "q")
GENERATING_PAIRS = [("a", "b"), ("b", "c"), ("e", "f")]
BLOCKS = ["abc", "ef", "q"]

# (subset, lower, upper), serialized; transcribed entry for entry.
PRINTED_TRIPLES = [
    ("a", "0", "abc"), ("b", "0", "abc"), ("c", "0", "abc"), ("e", "0", "ef"),
    ("f", "0", "ef"), ("q", "q", "q"), ("ab", "0", "abc"), ("ac", "0", "abc"),
    ("ae", "0", "abcef"), ("af", "0", "abcef"), ("aq", "q", "abcq"), ("bc", "0", "abc"),
    ("be", "0", "abcef"), ("bf", "0", "abcef"), ("bq", "q", "abcq"), ("ec", "0", "abcef"),
    ("cf", "0", "abcef"), ("ef", "ef", "ef"), ("eq", "q", "efq"), ("fq", "q", "efq"),
    ("abc", "abc", "abc"),
    ("abe", "0", "abcef"), ("abf", "0", "abcef"), ("abq", "q", "abcq"),
    ("bce", "0", "abcef"), ("bcf", "0", "abcef"), ("bcq", "q", "abcq"),
    ("ace", "0", "abcef"), ("acf", "0", "abcef"), ("acq", "q", "abcq"),
    ("aef", "ef", "abcef"), ("bef", "ef", "abcef"), ("cef", "ef", "abcef"),
    ("aeq", "q", "S"), ("afq", "q", "S"), ("beq", "q", "S"), ("bfq", "q", "S"),
    ("ceq", "q", "S"), ("cfq", "q", "S"), ("efq", "efq", "efq"),
    ("abce", "abc", "abcef"), ("abcf", "abc", "abcef"), ("abcq", "abcq", "abcq"),
    ("abef", "ef", "abcef"), ("abeq", "q", "S"), ("abfq", "q", "S"),
    ("bcef", "ef", "abcef"), ("bceq", "q", "S"), ("bcfq", "q", "S"),
    ("aceq", "q", "S"), ("acfq", "q", "S"), ("acef", "ef", "abcef"),
    ("aefq", "efq", "S"), ("befq", "efq", "S"), ("cefq", "efq", "S"),
    ("abcef", "abcef", "abcef"), ("abceq", "abcq", "S"), ("abcfq", "abcq", "S"),
    ("acefq", "efq", "S"), ("bcefq", "efq", "S"), ("S", "S", "S"),
]

# The two subsets the listing skips, with values derived from the block
# definitions (cq holds block q only; abefq holds blocks ef and q).
OMITTED_TRIPLES = {"cq": ("q", "abcq"), "abefq": ("efq", "S")}

# The 17 classes of roughly equal nonempty subsets, by full member listing.
CLASS_LISTING = [
    ["a", "b", "c", "ab", "ac", "bc"],
    ["e", "f"],
    ["q"],
    ["ae", "af", "be", "bf", "ce", "cf", "abe", "ace", "acf", "abf", "bce", "bcf"],
    ["abq", "acq", "bcq", "aq", "bq", "cq"],
    ["abce", "abcf"],
    ["aef", "bef", "cef", "abef", "acef", "bcef"],
    ["eq", "fq"],
    ["abc"],
    ["abcef"],
    ["ef"],
    ["abcq"],
    ["efq"],
    ["S"],
    ["aeq", "beq", "ceq", "afq", "bfq", "cfq", "abeq", "aceq", "bceq", "abfq", "bcfq", "acfq"],
    ["aefq", "befq", "cefq", "abefq", "bcefq", "acefq"],
    ["abceq", "abcfq"],
]

# A ten-atom model without operator tables (1024 subsets, 2048 pairs in K).
TEN_ATOM_MODEL = {
    "universe": list("abcdefghij"),
    "partition": [["a", "b", "c"], ["d", "e", "f"], ["g", "h"], ["i"], ["j"]],
}
