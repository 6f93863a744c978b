#!/usr/bin/env python3
"""Classify the extended 1-perfect unitrades of lengths 6 and 8.

Length 6 has two classes: the 8-word diagonal type and the 10-word
L*(6), the unique non-bipartite one.  Length 8 has eight classes, two
of them non-bipartite: L*(6)10 u L*(6)01 (20 words) and L*(8)
(24 words).  The three 32-word classes are the optimal even-weight
2-fold 1-packings of length 8.

The full length-10 run (32 non-bipartite classes, 30 of them primary,
three of cardinality 96) is an opt-in long job:

    hampack classify --n 10 --nonbipartite --threads 4 --checkpoint run.ckpt --out classes10/
"""

from hampack.search import SearchConfig, classify_extended_unitrades

for n in (6, 8):
    classes = classify_extended_unitrades(SearchConfig(n=n))
    print(f"length {n}: {len(classes)} classes")
    for cl in classes:
        marks = []
        if not cl.bipartite:
            marks.append("non-bipartite")
        if cl.constant_weight_translate:
            marks.append("constant-weight translate")
        if cl.antipodal:
            marks.append("antipodal")
        marks.append(cl.reducibility_kind)
        print(f"  {cl.cardinality:>3} words  [{', '.join(marks)}]")
    print()
